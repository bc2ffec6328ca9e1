"""Photon-number distributions of one-mode Gaussian states, two-mode squeezed
light and deformed-oscillator states.

Three independently coded representations of the one-mode Gaussian
distribution are provided (two-index Hermite, Laguerre, and the direct
centered-covariance sum); on valid states they agree termwise, which is the
central cross-check of this package.  The Hermite and Laguerre routes
read a state through one generating record
(``gaussian_state._generating_record``: R, the transformed displacement w,
and the state's generating-law value, which holds the roots a+- and
exponents c+- of the generating function, ln P0 and the covariance), never
through the Hermite arguments y of ``r_matrix``, so both are finite
wherever D = Tr + 2 det + 1/2 != 0.  For covariances violating the
quadrature uncertainty relation the same formulas return negative or complex
values, and every distribution carries a classification verdict:

* ``PROBABILITY``: real and nonnegative to within 1e-12, and summing to one
  within the truncation tail bound.
* ``SIGNED_REAL``: real but with at least one entry below -1e-12.
* ``COMPLEX``: at least one entry whose imaginary part reaches 1e-12.

Where the tail bound is proven a SignedReal or Complex table must sum to
one within it too; a table that does not is not the law's values, and
raises ``NormalizationError``.

The two 1e-12 tolerances are fixed, so no caller can move a verdict.

The Hermite and Laguerre routes and the violation family are finite
double sums "row n = e^{C[n]} sum_k A[k] B[n-k]"; each builds its own A, B
and C as log-magnitudes and phases, and :func:`specfun.log_cauchy_rows`
sums all rows at once by a tilted convolution, keeping each row's
log-magnitude far outside the double range.  The xyt route and the
two-mode total law sum nothing: each is P0 b^n F_n, with F_n =
2F1(-n, 1/2; 1; z), z in [0, 2], from one O(N) recurrence shared by both
(:func:`specfun._gauss_2f1_half`), and |F_n| <= 1.

Truncation is adaptive unless an explicit ``n_max`` is given.  Every
one-mode Gaussian series (the Hermite and Laguerre routes, the xyt route and
the closed Poisson, squeezed-vacuum and squeezed/correlated laws) has the
generating function P0 prod+- (1 + a+- z)^(-1/2) exp(c+- z / (1 + a+- z))
and decays like q^n, with q = max(|a+|, |a-|).  Each law builds one
generating-law value (``gaussian_state._Law``: a+-, c+-, ln P0 and the
sign pattern of its covariance) from its own numbers, and one cutoff
rule, :func:`_decay_cut`, reads it: the routes take the value from the
generating record, the xyt route builds it from its covariance
invariants, the closed laws from their mean or tanh r and scaled Hermite
argument.  Where q < 1 the cutoff N is chosen once, before any term is
computed, as the smallest N whose proven bound on the omitted mass
(doubled, for headroom) is below 1e-12, capped at 4096; the series is
evaluated once and that bound is its ``tail_bound``.  At an explicit
``n_max`` the tail is the same bound evaluated there, so every printed
tail of a law with q < 1 is a proof.  A bound at the cap that is not below
1 raises ``RangeOverflowError``, and so does a q that is not below 1 on a
positive-definite covariance (where q < 1 exactly), at any N; a
negative-definite covariance with q >= 1 has no law, and raises
``DivergentSeriesError``.  The two-mode total law is cut by the same rule
in its pair index.  The other series (f- and q-coherent, the violation
family, and Gaussian states with a covariance that is neither positive nor
negative definite and q >= 1) start at 32 and double until the estimated
geometric tail drops below 1e-12 or the cutoff reaches 4096.  That
estimate ignores magnitudes below 1e3 eps of the largest term, which are
roundoff.
Sequences whose tail grows (the uncertainty-violating families are
asymptotic, not convergent) are trimmed at their smallest term and the
residual is reported in ``tail_bound``; where the violation family's
terms are all positive, its adaptive call reads from P_0, P_2 and P_4
alone whether every such cut must fail the mass check, and raises
before building a table (:func:`pn_violation`).  A series whose every
term is 0 (underflowed) at its last N, or at an explicit N, raises
``RangeOverflowError``.

A distribution's ``values`` are one read-only complex128 array from the
series through truncation and classification to the exporters.

Everything here is pure and immutable after construction, apart from the
generating record and adaptive cutoff that a one-mode state object keeps
once computed (``_gaussian_distribution``); grid sweeps over states are
embarrassingly parallel with deterministic per-cell results.
"""

from __future__ import annotations

import cmath
import enum
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat, takewhile

import numpy as np

from .errors import (
    DivergentSeriesError,
    DomainError,
    InvalidSpecError,
    NormalizationError,
    ParityError,
    RangeOverflowError,
    SingularDenominatorError,
)
from .gaussian_state import (
    OneModeGaussianState,
    XYTState,
    _definite,
    _generating_record,
    _Law,
    from_tau,
)
from .specfun import (
    _LOG_DBL_MAX,
    _gauss_2f1_half,
    _legendre_columns,
    _legendre_scaled,
    gauss_2f1_terminating,
    hermite_2d_factors,
    hermite_sequence_log,
    laguerre_half_sequence,
    log_cauchy_rows,
    log_factorial,
    log_factorials,
    log_powers,
    log_signed_values,
)

__all__ = [
    "Classification",
    "PhotonDistribution",
    "TwoModeJointDistribution",
    "LegendreParams",
    "DeformationKind",
    "DeformationSpec",
    "pn_hermite",
    "pn_laguerre",
    "pn_centered_xyt",
    "pn_violation",
    "mean_photon_xyt",
    "two_mode_p2k",
    "two_mode_p2k_sequence",
    "two_mode_p2k_distribution",
    "two_mode_joint",
    "two_mode_joint_distribution",
    "deformed_pn",
    "deformed_distribution",
    "distribution_from_values",
    "distribution_to_csv",
    "distribution_to_json",
]

_TOL_IMAG = 1e-12
_TOL_NEG = 1e-12
_TAIL_TARGET = 1e-12
_ADAPTIVE_START = 32
_ADAPTIVE_CAP = 4096
_NORM_SLOP = 1e-9
# relative margin of each test on the violation family's closed-form head,
# far above the few ulps by which the series' own P_0, P_2, P_4 miss it
_HEAD_MARGIN = 1 - 1e-12
# tables this long sum their mass in numpy first; on shorter ones fsum
# costs less than numpy's two sums
_NUMPY_SUM_FROM = 128
_NOISE_FLOOR = 1e3 * sys.float_info.epsilon


class Classification(str, enum.Enum):
    PROBABILITY = "Probability"
    SIGNED_REAL = "SignedReal"
    COMPLEX = "Complex"


@dataclass(frozen=True, eq=False)
class PhotonDistribution:
    """A truncated photon-number sequence with tail estimate and verdict.

    ``values[n]`` is the (possibly complex) weight of counting n photons,
    held as a read-only complex128 array; ``truncation`` is the largest
    retained n; ``tail_bound`` bounds the omitted mass.  For a one-mode
    Gaussian law with decay ratio q < 1 it is the proven bound of
    :func:`_decay_cut`, at an explicit ``n_max`` as at the adaptive N, and
    is ``inf`` only where that bound leaves the double range; for every
    other series it is estimated from the geometric decay of the last
    retained terms, and is ``inf`` where they do not decay.

    The constructor copies ``values``, so an array passed in stays the
    caller's: writeable, and shared with no distribution.  The tables the
    library builds are frozen in place and wrapped with no second copy.
    """

    values: np.ndarray
    truncation: int
    tail_bound: float
    classification: Classification

    def __post_init__(self):
        values = np.array(self.values, dtype=complex)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def value(self, n: int) -> complex:
        """values[n], zero-extended beyond the truncation."""
        if n < 0:
            raise DomainError("photon number must be nonnegative")
        return self.values[n] if n < len(self.values) else 0j


@dataclass(frozen=True)
class TwoModeJointDistribution:
    """Joint photon-pair table P(n1, n2), nonnegative with sum <= 1 + 1e-9."""

    values: np.ndarray
    truncation: tuple[int, int]
    tail_bound: float

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise DomainError("joint table must be a 2-d array")
        if not np.isfinite(arr).all():
            raise DomainError("joint table entries must be finite")
        if (arr < -_TOL_NEG).any():
            raise DomainError("joint table entries must be nonnegative")
        if arr.sum() > 1 + _NORM_SLOP:
            raise NormalizationError("joint table mass exceeds one")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class LegendreParams:
    """Inputs (N, F1, F2, F3) of the Legendre form of the joint distribution.

    The overall scale ``n_factor`` and the three F parameters are consumed
    as given; the constants they are usually assembled from are outside the
    scope of this package.  ``n_factor``, ``f1`` and ``f2`` must be finite
    and positive (the weights are N times real powers of F1 and F2), and
    ``f3``, the Legendre argument, finite; anything else raises DomainError.
    """

    n_factor: float
    f1: float
    f2: float
    f3: float

    def __post_init__(self):
        for name in ("n_factor", "f1", "f2"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise DomainError(f"{name} must be finite and positive, got {value!r}")
        if not math.isfinite(self.f3):
            raise DomainError(f"f3 must be finite, got {self.f3!r}")


class DeformationKind(str, enum.Enum):
    POISSON = "poisson"
    F_COHERENT = "f-coherent"
    Q_COHERENT = "q-coherent"
    SQUEEZED_CORRELATED = "squeezed-correlated"
    SQUEEZED_VACUUM = "squeezed-vacuum"


@dataclass(frozen=True)
class DeformationSpec:
    """Parameters of a deformed-oscillator (or reference) number distribution.

    alpha_mag2 is |alpha|^2 where applicable; ``lam`` is the q-deformation
    parameter; ``r``/``theta`` the squeeze modulus and phase; ``f_values``
    the deformation profile f(0), f(1), ... (empty means f == 1
    identically); ``mean_q``/``mean_p`` displace the squeezed/correlated
    family.

    ``f_convention``: "sqrt-factorial" keeps the sqrt(n!) weight of the
    defining series, "factorial" selects the conventional n! weight.
    """

    kind: DeformationKind
    alpha_mag2: float = 0.0
    lam: float = 0.0
    r: float = 0.0
    theta: float = 0.0
    f_values: tuple[float, ...] = ()
    mean_q: float = 0.0
    mean_p: float = 0.0
    f_convention: str = "sqrt-factorial"

    def __post_init__(self):
        object.__setattr__(self, "f_values", tuple(float(v) for v in self.f_values))
        for name in ("alpha_mag2", "lam", "r", "theta", "mean_q", "mean_p", "f_values"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidSpecError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.alpha_mag2 < 0:
            raise InvalidSpecError("alpha_mag2 must be nonnegative")
        if self.f_convention not in ("sqrt-factorial", "factorial"):
            raise InvalidSpecError(f"unknown f_convention {self.f_convention!r}")


# ---------------------------------------------------------------------------
# truncation, tail estimation, classification
# ---------------------------------------------------------------------------


def _tail_estimate(mags: np.ndarray) -> float:
    """Geometric tail bound from the decay ratio of the last 5 nonzero terms.

    Magnitudes below 1e3 eps of the largest one count as zero: they are
    roundoff, like the odd terms of a pure squeezed vacuum, and their
    alternation with the even terms would read as growth.  Such terms after
    the window are still retained, so the extrapolated decay steps past
    them (one ratio per index gap of the last two counted terms) before it
    reaches the omitted tail.  A lone nonzero entry followed by a run of
    zeros counts as finite support (tail 0); a lone entry with nothing
    after it is unbounded.
    """
    nz = (mags > _NOISE_FLOOR * mags.max(initial=0.0)).nonzero()[0]
    if not nz.size:
        return 0.0
    trailing = len(mags) - 1 - int(nz[-1])
    if nz.size == 1:
        return 0.0 if trailing >= 4 else math.inf
    window = mags[nz[-5:]].tolist()
    ratios = [window[i + 1] / window[i] for i in range(len(window) - 1)]
    if ratios[-1] >= 1.0:
        return math.inf  # still growing at the end
    r = max(takewhile(lambda q: q < 1.0, reversed(ratios)))  # past any hump
    stride = int(nz[-1] - nz[-2])
    # factor-2 headroom: the asymptotic ratio is sampled, not proven
    return 2.0 * window[-1] * r ** (1 + trailing // stride) / (1.0 - r)


def _trim_divergent(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Cut an asymptotic (decay-then-regrowth) tail back to its smallest term.

    Returns the kept values, their magnitudes and whether a cut was made.
    Sequences that grow from the start are left alone: they carry their
    divergence as data (classification handles them), whereas trimming is
    only meaningful past a genuinely decayed head.
    """
    mags = np.abs(values)
    nz = (mags > 0.0).nonzero()[0]
    if nz.size < 8:
        return values, mags, False
    last = mags[nz[-5:]]
    if not (last[1:] > last[:-1]).all():
        return values, mags, False
    i_min = nz[np.argmin(mags[nz])]
    if i_min >= nz[-1] - 4 or mags[i_min] >= mags[nz[0]]:
        return values, mags, False
    return values[: i_min + 1], mags[: i_min + 1], True


def _classify(values: np.ndarray, tail_bound: float, proven: bool = False) -> Classification:
    """The verdict of a table; a nonnegative one must sum to within
    [1 - tail - 1e-9, 1 + 1e-9].  A ``proven`` tail bound is a proof, so
    a SignedReal or Complex table must sum to 1 within it too: it raises
    where |fsum(Re P) - 1| exceeds tail + 1e-9 by more than the rounding
    of the values' sum, slack = (N + 1) eps sum |Re P_n|.

    ``math.fsum``, the correctly rounded sum, is the judge of both rules,
    and quotes the sum in every message.  On a table of 128 terms or more
    it runs only where numpy's sum s does not settle the verdict: in any
    summation order N + 1 terms miss the exact sum by at most
    gamma_N sum |Re P_n|, gamma_N = N u / (1 - N u) with u = eps/2
    (Higham, ch. 4), and fsum misses it by at most u times the same, so
    fsum lies inside [s - slack, s + slack] with half of slack to spare
    for the rounding of both ends.  Where both ends pass, so does fsum;
    anything else (NaN and inf included) falls through to fsum.
    """
    imag, real = values.imag, values.real
    if np.count_nonzero(imag) and np.count_nonzero(np.abs(imag) >= _TOL_IMAG):
        verdict = Classification.COMPLEX
    elif np.count_nonzero(real < -_TOL_NEG):
        verdict = Classification.SIGNED_REAL
    else:
        verdict = Classification.PROBABILITY
    if not (proven or verdict is Classification.PROBABILITY):
        return verdict
    low, high = 1 - tail_bound - _NORM_SLOP, 1 + _NORM_SLOP
    if len(values) >= _NUMPY_SUM_FROM:
        slack = len(values) * sys.float_info.epsilon * np.abs(real).sum()
        total = real.sum()
        ends = total - slack, total + slack
        if verdict is Classification.PROBABILITY:
            if low <= ends[0] and ends[1] <= high:
                return verdict
        elif all(abs(end - 1) - tail_bound - _NORM_SLOP <= slack for end in ends):
            return verdict
    total = math.fsum(real.tolist())
    if verdict is Classification.PROBABILITY:
        if low <= total <= high:
            return verdict
        raise NormalizationError(
            f"nonnegative weight sequence sums to {total:.12g} against tail bound "
            f"{tail_bound:.3g}: the formal series fits no classification"
        )
    excess = abs(total - 1) - tail_bound - _NORM_SLOP
    if excess > 0 and excess > len(values) * sys.float_info.epsilon * np.abs(real).sum():
        raise NormalizationError(
            f"{verdict.value} sequence sums to {total:.12g} against proven tail bound "
            f"{tail_bound:.3g}: the values are not the law's"
        )
    return verdict


def _finalize(values: np.ndarray, tail: float, proven: bool = False) -> PhotonDistribution:
    """The distribution of a complex128 table that the library built and
    that nothing else holds: it is frozen in place and wrapped, not copied."""
    if len(values) > 1 and not values[-1]:  # trailing zeros are dropped, values[0] kept
        nonzero = values[1:].nonzero()[0]
        values = values[: nonzero[-1] + 2 if nonzero.size else 1]
    values.flags.writeable = False
    dist = object.__new__(PhotonDistribution)
    vars(dist).update(values=values, truncation=len(values) - 1, tail_bound=tail,
                      classification=_classify(values, tail, proven))
    return dist


# the Cauchy-estimate ratios rho = q + (1 - q) f tried for a displaced state;
# 7/8 and 3/4 reach the rho near c / N that a law with q = 0 and a large
# exponent c needs (a coherent law at |<q>| of 74 to 85)
_RHO_STEPS = (0.875, 0.75) + tuple(2.0**-k for k in range(1, 13))


def _decay_cut(law: _Law, n_max, step: int = 1) -> tuple[int, float] | None:
    """(N, tail bound) of a one-mode law from its generating-law value
    (:class:`gaussian_state._Law`: a+-, c+- and ln P0, of whose real part
    a P0 that underflows still bounds the tail exactly); or None where
    q = max(|a+|, |a-|) >= 1 on a covariance that is neither positive nor
    negative definite (``law.definite`` = 0).  N is ``n_max`` where given,
    else adaptive.

    The law's index may count photons in steps of ``step``: the two-mode
    total law is such a law in its pair index k = n / 2.  Everything below
    is then in that index, capped at 4096 photons (k = 2048 for the
    two-mode law): the adaptive N is ``step`` times the index found, and
    an explicit ``n_max`` reads the bound at index n_max // step.

    Where c+ = c- = 0 (a centered law) |P_n| <= |P0| q^n: the coefficients
    of the square-root factor are at most
    sum_k C(2k, k) C(2n-2k, n-k) q^n / 4^n = q^n.  Otherwise Cauchy's
    estimate on |z| = 1/rho, q < rho < 1, gives
    |P_n| <= |P0| B rho^n with B = prod (1 - |a|/rho)^(-1/2) exp(c / (rho + a)),
    the exponent's real part peaking at z = 1/rho.  Summing the bound past N
    and doubling it gives the tail 2 |P0| B rho^(N+1) / (1 - rho).  The
    adaptive N is the smallest N >= 1 with tail <= 1e-12 for some
    rho = q + (1 - q) f, f = 7/8, 3/4 and 2^-k, k = 1..12, capped at 4096
    (the first two serve a law with small q and a large c, whose best rho
    is near c / N); the tail reported is
    the least over k at N, and at an explicit N it is the same bound there
    (inf past about 1e296).  It ignores the n^(-1/2) of the terms, so
    at small N it is loose: 2.40 for the squeezed vacuum at r = 1, N = 2,
    where 0.164 is omitted.  Only the rho that stay strictly between q and
    1 in floating point are tried: within a few ulps of 1 the others round
    onto q (where rho + a+ is 0) or onto 1.

    Whether q < 1 is read from the covariance's sign pattern, not from
    the float q: the roots are a = (1 - 2 lambda) / (1 + 2 lambda) for the
    eigenvalues lambda of Sigma, so q < 1 exactly when Sigma > 0.  A q
    that is not below 1 on a positive-definite Sigma (a squeezed vacuum
    from about r = 18.5, or (1e-17, 1) whatever its det) is rounding, and
    means a law spread far past the cap, not a series to double.  On a
    negative-definite Sigma no law exists, and it is not doubled.  A Sigma
    that is neither (det <= 0) with q >= 1 is doubled.

    Raises:
        DomainError: ``n_max`` is negative.
        DivergentSeriesError: q >= 1 on a negative-definite covariance.
        RangeOverflowError: a squared displacement leaves the double range
            (c+ + c- or ln |P0| is not finite), the adaptive tail bound at
            the cap is not below 1, q >= 1 on a positive-definite
            covariance, or no rho lies strictly between q and 1 (the law
            lies past the cap).
    """
    if n_max is not None and n_max < 0:
        raise DomainError("n_max must be nonnegative")
    a_plus, a_minus, c_plus, c_minus = law.a_plus, law.a_minus, law.c_plus, law.c_minus
    q = max(abs(a_plus), abs(a_minus))
    if not q < 1:
        if law.definite < 0:
            raise DivergentSeriesError("negative-definite covariance: no law exists")
        if not law.definite:
            return None
        raise RangeOverflowError("decay ratio rounds to 1: the law lies past the cap")
    if not math.isfinite(c_plus + c_minus + law.log_p0.real):
        raise RangeOverflowError("squared displacement exceeds the double range")
    log_2p0 = law.log_p0.real + math.log(2 / _TAIL_TARGET)
    if not (c_plus or c_minus):
        if q == 0:  # the vacuum
            return (step if n_max is None else n_max), 0.0
        rho, log_b = [q], [0.0]
    else:
        # within a few ulps of 1, q + (1 - q) f rounds to q or to 1
        rho = [r for r in (q + (1 - q) * f for f in _RHO_STEPS) if q < r < 1]
        if not rho:
            raise RangeOverflowError("decay ratio rounds to 1: the law lies past the cap")
        log_b = [
            c_plus / (r + a_plus) + c_minus / (r + a_minus)
            - 0.5 * (math.log1p(-abs(a_plus) / r) + math.log1p(-abs(a_minus) / r))
            for r in rho
        ]
    # ln(tail / 1e-12) = front + (N + 1) ln rho for each candidate rho
    fronts = [(log_2p0 + b - math.log1p(-r), math.log(r)) for r, b in zip(rho, log_b)]
    if n_max is None:
        n = min(_ADAPTIVE_CAP // step, max(1, math.ceil(min(f / -lr for f, lr in fronts) - 1)))
    else:
        n = n_max // step
    log_tail = min(f + (n + 1) * lr for f, lr in fronts)
    if n_max is None and log_tail >= -math.log(_TAIL_TARGET):  # only at the cap
        raise RangeOverflowError(
            f"tail bound at the N = {n * step} cap is not below 1: the law lies past the cap"
        )
    tail = _TAIL_TARGET * math.exp(log_tail) if log_tail < _LOG_DBL_MAX else math.inf
    return (n * step if n_max is None else n_max), tail


def _build_distribution(series, n_max, cut=None) -> PhotonDistribution:
    """Run ``series(N) -> complex ndarray`` under the truncation policy.

    ``cut``, where not None, is the law's (N, tail) from :func:`_decay_cut`
    at ``n_max``: the series is evaluated once at that N and with its
    proven tail bound, which also checks the table's mass.  Every other
    series starts at N = 32 and doubles until the sampled geometric tail
    estimate of :func:`_tail_estimate` is below 1e-12, the series is
    trimmed as divergent, or N reaches the 4096 cap; an explicit ``n_max``
    is the one pass of that loop.  A series whose every term is 0 (underflowed) has
    not converged: it doubles on, and raises ``RangeOverflowError`` if
    still all 0 at its last N or at an explicit N.  A
    ``RangeOverflowError`` from the series propagates.
    """
    if n_max is not None and n_max < 0:
        raise DomainError("n_max must be nonnegative")
    if cut is not None:
        n, tail = cut
        values = series(n)
        # an adaptive N keeps all but its tail bound, below 1, of the mass;
        # only an explicit N can keep none
        if n_max is not None and not np.count_nonzero(values):
            raise RangeOverflowError(f"every term up to N = {n} underflows to 0")
        return _finalize(values, tail, True)
    n = _ADAPTIVE_START if n_max is None else n_max
    while True:
        vals, mags, trimmed = _trim_divergent(series(n))
        # a series whose every term underflowed to 0 has not converged
        nonzero = np.count_nonzero(mags)
        tail = _tail_estimate(mags) if nonzero else math.inf
        done = n_max is not None or trimmed or tail < _TAIL_TARGET or n >= _ADAPTIVE_CAP
        if done and not nonzero:
            raise RangeOverflowError(f"every term up to N = {n} underflows to 0")
        # growing past any probability scale: divergent, stop extending
        if done or (not math.isfinite(tail) and (mags > 1e30).any()):
            return _finalize(vals, tail)
        n *= 2


def distribution_from_values(values) -> PhotonDistribution:
    """Wrap an explicit weight sequence in a classified distribution.  The
    sequence is copied: an array passed in stays the caller's, writeable
    and unaliased."""
    values = np.array(values, dtype=complex)
    return _finalize(values, _tail_estimate(np.abs(values)))


# ---------------------------------------------------------------------------
# one-mode Gaussian routes
# ---------------------------------------------------------------------------

def _hermite_ratio_seq(rec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """log-signed P_n / P0 = H_nn^{R}(y1, y2) / n! = n! sum_k A[k] B[n-k]
    for n = 0..n_max, one Cauchy product of the two factors of
    :func:`specfun.hermite_2d_factors`, which take no root of R.  The
    arguments enter only through the record's w = R11 y1 + R12 y2 and its
    conjugate R12 y1 + R22 y2."""
    a, b = hermite_2d_factors(n_max, rec, rec.w, rec.w.conjugate())
    mag, ph = log_cauchy_rows(*a, *b, n_max + 1)
    mag += log_factorials(n_max)
    return mag, ph


def _laguerre_ratio_seq(rec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """log-signed P_n / P0 for n = 0..n_max through the Laguerre-product sum

        P_n / P0 = sum_s (-a+)^s L_s(c+ / a+) (-a-)^(n-s) L_(n-s)(c- / a-),

    the Cauchy product of the two factors of the generating function
    (1 + a z)^(-1/2) exp(c z / (1 + a z)) = sum_n (-a)^n L_n^{-1/2}(c / a) z^n,
    each a :func:`laguerre_half_sequence` at x = -c, scale = -a.
    """
    return log_cauchy_rows(
        *laguerre_half_sequence(-rec.law.c_plus, n_max, -rec.law.a_plus),
        *laguerre_half_sequence(-rec.law.c_minus, n_max, -rec.law.a_minus),
        n_max + 1,
    )


def _gaussian_distribution(state: OneModeGaussianState, ratio_fn, n_max) -> PhotonDistribution:
    """P_n = P0 (P_n / P0), with ln P0 added to the log-magnitudes of the
    ratios before the one exponentiation: P0 may underflow where the ratios
    overflow.  The series and the cutoff read the state's generating record
    and its law.

    The state object keeps the record and its adaptive cutoff once
    computed, in its instance dict, as ``functools.cached_property`` keeps
    a value, so they are no dataclass fields and ==, hash, repr and
    ``to_dict`` do not see them.  They are kept per object, never by value:
    states that compare equal can differ in the sign of a zero.  A
    computation that raises keeps nothing, so the state raises again on
    the next call.
    """
    memo = vars(state)
    rec = memo.get("_record")
    if rec is None:
        rec = memo["_record"] = _generating_record(state)
    log_p0 = rec.law.log_p0

    def series(n_max: int) -> np.ndarray:
        mag, ph = ratio_fn(rec, n_max)
        mag += log_p0.real
        # a real P0 keeps a real law real
        return log_signed_values(mag, ph * cmath.exp(1j * log_p0.imag) if log_p0.imag else ph)

    if n_max is not None:
        return _build_distribution(series, n_max, _decay_cut(rec.law, n_max))
    if "_cut" not in memo:
        memo["_cut"] = _decay_cut(rec.law, None)
    return _build_distribution(series, None, memo["_cut"])


def pn_hermite(
    state: OneModeGaussianState, n_max: int | None = None
) -> PhotonDistribution:
    """Photon-number distribution through the two-index Hermite representation.

    Works for any finite covariance, including uncertainty-violating ones
    (the result then classifies as SignedReal or Complex), and any
    displacement: the Hermite arguments come from the transformed
    displacement w of the state's generating record, not from y.

    Raises:
        SingularDenominatorError: D = Tr + 2 det + 1/2, the denominator of
            R and twice P0's radicand, vanishes.
        RangeOverflowError: D or the squared displacement leaves the
            double range, or the law lies past the 4096 cap.
    """
    return _gaussian_distribution(state, _hermite_ratio_seq, n_max)


def pn_laguerre(
    state: OneModeGaussianState, n_max: int | None = None
) -> PhotonDistribution:
    """Photon-number distribution through the Laguerre-product representation.

    Independent of :func:`pn_hermite` except for the shared state
    parametrization, the generating record; their termwise agreement is a
    package-level invariant.

    Raises:
        SingularDenominatorError: as :func:`pn_hermite`.
    """
    return _gaussian_distribution(state, _laguerre_ratio_seq, n_max)


def pn_centered_xyt(
    state: XYTState, n_max: int | None = None
) -> PhotonDistribution:
    """Distribution of a centered covariance triple, coded directly from the
    covariance invariants (no R-matrix plumbing).  Its generating function
    is P0 ((1 + a+ z)(1 + a- z))^(-1/2) with

        a+- = (1 - 4 det -+ 2 sqrt(Tr^2 - 4 det)) / (4 det + 2 Tr + 1),
        P0 = 2 (4 det + 2 Tr + 1)^(-1/2),

    so with |a_lo| <= |a_hi| the law is Gauss' hypergeometric form

        P_n = P0 (-a_hi)^n 2F1(-n, 1/2; 1; z),    z = 1 - a_lo / a_hi in [0, 2],

    which is P0 (-a_hi)^n rho^(n/2) P_n((1 + rho) / (2 sqrt(rho))) with
    rho = 1 - z and P_n Legendre's polynomial.  The 2F1 factors come from
    one O(N) recurrence (:func:`specfun._gauss_2f1_half`, also the two-mode
    law's), each at most 1 in modulus, and (-a_hi)^n from
    :func:`specfun.log_powers`; no Cauchy product is summed, so a table
    costs O(N).  F_n is within 1e-16 of mpmath's 2F1 for n <= 2048 on
    z in [0, 2], and each term carries the rounding of n ln|a_hi| besides.
    Where (-a_hi)^n P0 passes the double range (a growing, uncut series)
    ln|F_n| goes into the log-magnitude before the one exponentiation.

    Valid on both sides of the uncertainty boundary; for det < -(2 Tr + 1)/4
    the half-integer power makes the values purely imaginary:
    P0 = -2i |4 det + 2 Tr + 1|^(-1/2) on the principal branch.

    Raises:
        SingularDenominatorError: 4 det + 2 Tr + 1 = 0.
        RangeOverflowError: 4 det + 2 Tr + 1, Tr^2 or a root a+- leaves
            the double range, or the law lies past the 4096 cap.
    """
    tr = state.x + state.y
    det = state.x * state.y - state.t * state.t
    a = 1 - 4 * det
    c = 4 * det + 2 * tr + 1
    if c == 0:
        raise SingularDenominatorError("4 det + 2 Tr + 1 vanishes for this state")
    if not math.isfinite(c):
        raise RangeOverflowError("4 det + 2 Tr + 1 exceeds the double range")
    # a+- = R12 -+ |R11| and P0 = 2 c^(-1/2), from these invariants alone;
    # Tr^2 - 4 det = (x - y)^2 + 4 t^2 is negative only by rounding
    root_b = 2 * math.sqrt(abs(tr * tr - 4 * det))
    law = _Law((a - root_b) / c, (a + root_b) / c, 0.0, 0.0, math.log(2) - 0.5 * math.log(abs(c)),
               _definite(state.x, det))
    lo, hi = sorted((law.a_plus, law.a_minus), key=abs)
    z = 1 - lo / hi if hi else 0.0  # the vacuum: F_n = 1, (-a_hi)^n = 0^n

    def series(n_max: int) -> np.ndarray:
        mag, ph = log_powers(-hi, n_max)  # raises where Tr^2 or a+- overflowed
        mag += law.log_p0
        f = _gauss_2f1_half(z, n_max)
        if mag.max() > _LOG_DBL_MAX:  # growing terms: a small F_n may keep P_n in range
            with np.errstate(divide="ignore"):
                mag, f = mag + np.log(np.abs(f)), np.sign(f)
        return log_signed_values(mag, ph * f) * (-1j if c < 0 else 1)

    return _build_distribution(series, n_max, _decay_cut(law, n_max))


def _violation_series(tau: float, bp: float, w: float):
    """``series(N)`` of the violation family, from tau and its bases
    bp = (x+y)^2 - 1 - 4 tau and w = x + y + 1 - 4 tau (w != 0)."""
    log_w = cmath.log(complex(w))

    def series(n_cut: int) -> np.ndarray:
        l_max = n_cut // 2
        l = np.arange(l_max + 1)  # also the index i of the bp^i factor
        log_fact = log_factorials(2 * l_max)
        i_mag, i_ph = log_powers(bp, l_max)
        j_mag, j_ph = log_powers(tau, 2 * l_max)
        mag, ph = log_cauchy_rows(
            i_mag - 4 * math.log(2) * l - log_fact[: l_max + 1], i_ph,
            j_mag[::2] - 2 * log_fact[::2], j_ph[::2],
            l_max + 1,
        )
        mag += log_fact[::2] + (2 * l + 0.5) * (math.log(2) - log_w.real)
        if log_w.imag:
            ph = ph * np.exp(-1j * (2 * l + 0.5) * log_w.imag)
        out = np.zeros(n_cut + 1, dtype=complex)
        out[::2] = log_signed_values(mag, ph)
        return out

    return series


def _violation_head(tau: float, bp: float, w: float) -> tuple[float, float, float]:
    """P_0, P_2 and P_4 of the violation family in closed form, for bp > 0
    and w > 0 (the bases of :func:`_violation_series`):

        P_0 = sqrt(2 / w)
        P_2 = (2^(3/2) tau^2 + 2^(-1/2) bp) / w^(5/2)
            = P_0 (2 v^2 + u / 2)
        P_4 = 24 (2^(9/2) tau^4 / 576 + 2^(1/2) tau^2 bp / 4 + 2^(-7/2) bp^2 / 2) / w^(9/2)
            = P_0 (2 v^4 / 3 + 6 v^2 u + 3 u^2 / 4)

    with u = bp / w^2 and v = tau / w, the form computed: it takes no
    power of w, whose w^(9/2) would overflow from w of about 1e68.
    """
    u, v = bp / w / w, tau / w
    v2 = v * v
    p0 = math.sqrt(2 / w)
    return p0, p0 * (2 * v2 + u / 2), p0 * (2 * v2 * v2 / 3 + 6 * v2 * u + 0.75 * u * u)


def pn_violation(
    tau: float, y: float, t: float = 0.0, n_max: int | None = None
) -> PhotonDistribution:
    """Even-photon weights of the tau-parameterized violation family,
    det Sigma = 1/4 - tau with x solved from (y, t):

        P_{2l} = (2l)! sum_i tau^{2(l-i)} / (i! ((2(l-i))!)^2)
                 ((x+y)^2 - 1 - 4 tau)^i
                 2^{2l - 4i + 1/2} / (x + y + 1 - 4 tau)^{2l + 1/2}

    Odd indices are identically zero.  This family is internally consistent
    with its closed complex special cases but is NOT the analytic
    continuation of :func:`pn_centered_xyt` away from tau = 0 (they agree at
    the vacuum boundary); its series is asymptotic, so adaptive truncation
    stops at the smallest term.  Classification is typically SignedReal
    ((x+y)^2 < 1 + 4 tau) or Complex (x + y + 1 < 4 tau) for tau > 0.

    Where both of those bases are positive (bp = (x+y)^2 - 1 - 4 tau > 0,
    w = x + y + 1 - 4 tau > 0) the weights are positive with a divergent
    tail; no classification applies there unless the kept terms happen to
    sum to within 1e-9 of 1 (near the vacuum, as at tau = 0,
    y = 0.4999999666950137), and a NormalizationError is raised -- the
    covariance route (:func:`pn_centered_xyt`) is the meaningful diagnostic
    in that corner.  The adaptive call settles most of the corner before
    any table is built: from the closed forms of P_0, P_2 and P_4
    (:func:`_violation_head`), where 0 < P_4 < P_2 < P_0 and
    P_0 + P_2 + P_4 > 1 + 1e-9, each by a relative margin of 1e-12, it
    raises at once.  That is the outcome the tables would reach: the odd
    terms are 0 and the even ones positive, so the smallest term lies at
    index 4 or later, every smallest-term cut keeps indices 0 to 4 (as
    does an uncut table), and the classification rejects the nonnegative
    table whose mass is at least P_0 + P_2 + P_4.  An explicit ``n_max``
    is not settled early: its one table is built as asked, and a long one
    can leave the double range and raise RangeOverflowError instead.
    The same error comes on the SignedReal side wherever the smallest-term
    cut keeps only nonnegative terms that sum past 1 + 1e-9: at
    tau = 0.5380340133488818, y = 1.6434924579041392 (t = 0) the cut keeps
    two terms, summing to 4.55 against a tail bound of 17.1.
    Immediately above the boundary the optimal (smallest-term) truncation
    may keep so few terms that the values pass the probability window
    within their large tail uncertainty; boundary detection should always
    use the covariance route.

    Raises:
        DomainError: tau < 0 (the family parameterizes violations only),
            or tau, y or t is not finite.
        SingularDenominatorError: y = 0 or the half-power base vanishes.
        RangeOverflowError: (x + y)^2 - 1 - 4 tau leaves the double range.
        NormalizationError: the positive divergent corner, or a cut on the
            SignedReal side that keeps only nonnegative terms (both above).
    """
    if tau < 0:
        raise DomainError("tau must be nonnegative")
    xyt = from_tau(tau, y, t)
    tr = xyt.x + xyt.y
    bp = tr * tr - 1 - 4 * tau
    w = tr + 1 - 4 * tau
    if w == 0:
        raise SingularDenominatorError("x + y + 1 - 4 tau vanishes")
    if n_max is None and 0 < bp < math.inf and w > 0:
        p0, p2, p4 = _violation_head(tau, bp, w)
        if (0 < p4 < _HEAD_MARGIN * p2 and p2 < _HEAD_MARGIN * p0
                and _HEAD_MARGIN * (p0 + p2 + p4) > 1 + _NORM_SLOP):
            raise NormalizationError(
                f"nonnegative weight sequence keeps at least P0 + P2 + P4 = "
                f"{p0 + p2 + p4:.12g} in every cut: the formal series fits no classification"
            )
    return _build_distribution(_violation_series(tau, bp, w), n_max)


def mean_photon_xyt(x: float, y: float) -> float:
    """Rational mean-photon form for the centered zero-covariance family:

        <n> = 2 (x - y) / (6x - 2y + 4xy + 1)

    Reported exactly as defined.  Caveats: it returns 0 for every isotropic
    (x = y) state although the series mean there is x - 1/2, and its sign
    disagrees with the companion text value in part of the violation
    region; it is therefore never used as an internal oracle and callers
    should rely on its magnitude plus an explicit sign report.

    Raises:
        SingularDenominatorError: the denominator vanishes.
    """
    den = 6 * x - 2 * y + 4 * x * y + 1
    if den == 0:
        raise SingularDenominatorError("mean-photon denominator vanishes")
    return 2 * (x - y) / den


# ---------------------------------------------------------------------------
# two-mode squeezed light
# ---------------------------------------------------------------------------


def _two_mode_args(s1: float, s2: float, k: int) -> tuple[float, float]:
    """(lo, hi) of the two squeezing fractions, after the domain checks."""
    if k < 0:
        raise DomainError("photon pair index must be nonnegative")
    for name, s in (("s1", s1), ("s2", s2)):
        if not 0 <= s < 1:
            raise DomainError(f"{name} must lie in [0, 1), got {s}")
    return min(s1, s2), max(s1, s2)


def two_mode_p2k(s1: float, s2: float, k: int) -> float:
    """Probability of counting 2k photons in total from two independently
    squeezed oscillators with squeezing fractions s_j = tanh^2 r_j:

        P_2k = sqrt(1 - s1) sqrt(1 - s2) s2^k 2F1(-k, 1/2; 1; 1 - s1/s2)

    The formula is symmetric in (s1, s2); the larger fraction is used as
    the expansion base so the hypergeometric argument stays in [0, 1]
    (this also provides the continuous limit when one fraction is 0).
    Each call sums the O(k) hypergeometric series; whole sequences come
    from :func:`two_mode_p2k_sequence`.

    Raises:
        DomainError: either fraction outside [0, 1) or k < 0.
    """
    lo, hi = _two_mode_args(s1, s2, k)
    if hi == 0:
        return 1.0 if k == 0 else 0.0
    front = math.sqrt((1 - s1) * (1 - s2))
    return front * hi**k * gauss_2f1_terminating(k, 0.5, 1.0, 1 - lo / hi)


def two_mode_p2k_sequence(s1: float, s2: float, k_max: int) -> np.ndarray:
    """P_0, P_2, ..., P_{2 k_max} of :func:`two_mode_p2k` in O(k_max):
    P_2k = sqrt((1-s1)(1-s2)) hi^k F_k with F_k = 2F1(-k, 1/2; 1; z),
    z = 1 - lo/hi in [0, 1], from the difference recurrence of
    :func:`specfun._gauss_2f1_half` that :func:`pn_centered_xyt` also runs.
    Its two terms share their sign for z in [0, 1], and the sequence stays
    within 5e-15 of 40-digit values for k <= 2048 on s in {0, .05, .25,
    .5, .8, .95, .999}^2; at s1 = s2 it keeps F_k = 1 exactly.  The powers
    hi^k are Python's (libm's pow): numpy's vectorized power rounds some of
    them differently.

    Raises:
        DomainError: either fraction outside [0, 1) or k_max < 0.
    """
    lo, hi = _two_mode_args(s1, s2, k_max)
    z = 1 - lo / hi if hi else 0.0  # both unsqueezed: F_k = 1, hi^k = 0^k
    front = math.sqrt((1 - s1) * (1 - s2))
    powers = np.fromiter(map(pow, repeat(hi), range(k_max + 1)), float, k_max + 1)
    return front * powers * _gauss_2f1_half(z, k_max)


def two_mode_p2k_distribution(
    s1: float, s2: float, n_max: int | None = None
) -> PhotonDistribution:
    """Total-photon-number distribution (odd counts are zero).

    In its pair index k the law has the generating function
    sqrt((1 - s1)(1 - s2)) ((1 - s1 z)(1 - s2 z))^(-1/2), a centered
    one-mode law's with a+- = -s1, -s2: :func:`_decay_cut` sizes it once,
    in k, with a proven tail bound, capped at N = 2k = 4096; an explicit
    ``n_max`` reads that bound at k = n_max // 2.

    Raises:
        DomainError: either fraction outside [0, 1) or n_max < 0.
        RangeOverflowError: the tail bound at the cap is not below 1 (the
            law lies past the cap).
    """
    _two_mode_args(s1, s2, 0)

    def series(n_cut: int) -> np.ndarray:
        out = np.zeros(n_cut + 1, dtype=complex)
        out[::2] = two_mode_p2k_sequence(s1, s2, n_cut // 2)
        return out

    law = _Law(-s1, -s2, 0.0, 0.0, 0.5 * math.log((1 - s1) * (1 - s2)), 1)
    return _build_distribution(series, n_max, _decay_cut(law, n_max, 2))


def _joint_weights(params: LegendreParams, n1, n2, leg, shift) -> np.ndarray:
    """Weights of the cells (n1[i], n2[i]) with P_l^m(F3) = leg[i] e^shift[i].

    The formula is written once, on arrays: :func:`two_mode_joint` reads one
    cell and :func:`two_mode_joint_distribution` a whole table.

    Raises:
        RangeOverflowError: some weight, or its factor after N, exceeds the
            double range.
    """
    n1, n2 = np.asarray(n1), np.asarray(n2)
    leg, shift = np.asarray(leg, dtype=float), np.asarray(shift, dtype=float)
    log_fact = log_factorials(int(max(n1.max(), n2.max())))
    log_t = (
        -abs(log_fact[n1] - log_fact[n2])
        + ((n1 - n2) / 2) * math.log(params.f1)
        + ((n1 + n2) / 2) * math.log(params.f2)
    )
    # a zero Legendre factor gives log 0 = -inf and the weight 0
    with np.errstate(over="ignore", divide="ignore"):
        out = params.n_factor * np.exp(log_t + 2 * (np.log(np.abs(leg)) + shift))
    if np.isinf(out).any():
        raise RangeOverflowError("two-mode joint weight exceeds the double range")
    return out


def two_mode_joint(params: LegendreParams, n1: int, n2: int) -> float:
    """Joint weight of the Legendre representation:

        P(n1, n2) = N exp(-|ln(n1!/n2!)|) F1^{(n1-n2)/2} F2^{(n1+n2)/2}
                    |L_{(n1+n2)/2}^{|n1-n2|/2}(F3)|^2

    Raises:
        ParityError: n1 + n2 odd (half-integer Legendre indices undefined).
        DomainError: negative indices.
        RangeOverflowError: the weight, or its factor after N, exceeds the
            double range.
    """
    if n1 < 0 or n2 < 0:
        raise DomainError("photon indices must be nonnegative")
    if (n1 + n2) % 2:
        raise ParityError(f"n1 + n2 must be even, got {n1} + {n2}")
    leg, shift = _legendre_scaled((n1 + n2) // 2, abs(n1 - n2) // 2, params.f3)
    return float(_joint_weights(params, [n1], [n2], [leg], [shift])[0])


def two_mode_joint_distribution(
    params: LegendreParams, n1_max: int, n2_max: int
) -> TwoModeJointDistribution:
    """Tabulate the joint weights on [0, n1_max] x [0, n2_max].

    Odd-parity cells carry zero weight.  Each cell equals
    :func:`two_mode_joint`, but the Legendre factors come from one climb in
    degree per order m, O(N^2) steps for the whole table instead of one
    recurrence per cell.  The caller chooses ``n_factor`` so the table is
    (near-)normalized; the residual above the retained box is reported as
    ``tail_bound``.

    Raises:
        DomainError: a negative maximum.
        RangeOverflowError: as :func:`two_mode_joint`, for some cell.
    """
    if n1_max < 0 or n2_max < 0:
        raise DomainError("photon index maxima must be nonnegative")
    # cell (n1, n2) reads P_l^m with l = (n1 + n2)/2 and m = |n1 - n2|/2, so
    # column m climbs to the largest l of a cell with n1 - n2 = +-2m and no
    # further: a value past the double range raises only where a cell reads it
    tops = {
        m: max(min(n1_max - m, n2_max + m), min(n2_max - m, n1_max + m))
        for m in range(max(n1_max, n2_max) // 2 + 1)
    }
    values, shifts = _legendre_columns(params.f3, tops)
    start = np.cumsum([0] + [top - m + 1 for m, top in tops.items()])
    n1, n2 = np.nonzero(~np.add.outer(np.arange(n1_max + 1), np.arange(n2_max + 1)) & 1)
    l, m = (n1 + n2) >> 1, abs(n1 - n2) >> 1
    cell = start[m] + l - m
    table = np.zeros((n1_max + 1, n2_max + 1))
    table[n1, n2] = _joint_weights(params, n1, n2, values[cell], shifts[cell])
    tail = max(0.0, 1.0 - float(table.sum()))
    return TwoModeJointDistribution(
        values=table, truncation=(n1_max, n2_max), tail_bound=tail
    )


# ---------------------------------------------------------------------------
# deformed-oscillator families
# ---------------------------------------------------------------------------


def _log_sinh(t: float) -> float:
    # overflow-free ln(sinh t) for t > 0
    return t - math.log(2) + math.log1p(-math.exp(-2 * t))


def _log_cosh(r: float) -> float:
    # overflow-free ln(cosh r)
    return abs(r) + math.log1p(math.exp(-2 * abs(r))) - math.log(2)


def _converged(logs: list[float]) -> bool:
    """Whether the log-terms so far end converged: the last three decrease
    and the last is below eps times the running sum."""
    if len(logs) < 3 or not logs[-1] < logs[-2] < logs[-3]:
        return False
    top = max(logs)
    log_sum = top + math.log(math.fsum(math.exp(v - top) for v in logs))
    return logs[-1] < log_sum + math.log(sys.float_info.epsilon)


@lru_cache(maxsize=64)
def _deformed_log_weights(spec: DeformationSpec) -> tuple[float, tuple[float, ...]]:
    """(log C0, log term_n table) for the series-normalized families."""
    a2 = spec.alpha_mag2
    if a2 == 0:
        return 0.0, (0.0,)
    log_a2 = math.log(a2)
    logs: list[float] = []
    denom_acc = 0.0
    top = -math.inf  # max(logs)
    n = 0
    while True:
        if spec.kind is DeformationKind.F_COHERENT:
            if spec.f_values:
                if n >= len(spec.f_values):
                    if _converged(logs):
                        break
                    raise InvalidSpecError(
                        "f_values exhausted before the normalization series converged"
                    )
                fv = spec.f_values[n]
                if fv == 0:
                    raise InvalidSpecError(f"f({n}) is zero")
                denom_acc += 2 * math.log(abs(fv))
            fact_w = 0.5 if spec.f_convention == "sqrt-factorial" else 1.0
            logs.append(n * log_a2 - fact_w * log_factorial(n) - denom_acc)
        else:  # Q_COHERENT
            if n >= 1:
                denom_acc += _log_sinh(spec.lam * n) - _log_sinh(spec.lam)
            logs.append(n * log_a2 - denom_acc)
        top = max(top, logs[-1])
        if n >= 8:
            if logs[-1] < top - 620:  # below double-precision underflow
                break
            if n >= 20000:
                raise DivergentSeriesError(
                    "normalization series failed the term-ratio test"
                )
        n += 1
    log_norm = top + math.log(math.fsum(math.exp(v - top) for v in logs))
    return -log_norm, tuple(logs)


def _squeezed_correlated_amplitude(spec: DeformationSpec) -> tuple[float, float, complex]:
    """(ln P0, t = tanh r, u) of the squeezed/correlated family, whose law
    P_n = P0 |h_n|^2 / (2^n n!) reads h_n = s^n H_n(u / s), s^2 = t (the
    scaled sequence takes t itself, so no root of t is taken),
    with u = e^(-i th / 2) (t conj(z) + e^(i th) z) / 2, z = <q> + i <p>:
    the paper's P0 (t/2)^n |H_n(g)|^2 / n! at g = u / s, with no division
    by t, so r = 0 is the coherent law.  P0 is kept as its log, which may
    lie far below the double range where the Hermite factors overflow.

    Raises:
        InvalidSpecError: r < 0.
        RangeOverflowError: ln P0, the squared displacement, is not finite.
    """
    r, th = spec.r, spec.theta
    if r < 0:
        raise InvalidSpecError("squeeze modulus r must be nonnegative")
    q, p = spec.mean_q, spec.mean_p
    t = math.tanh(r)
    z = complex(q, p)
    u = cmath.exp(-0.5j * th) * (t * z.conjugate() + cmath.exp(1j * th) * z) / 2
    log_p0 = (
        -_log_cosh(r)
        - (p * p + q * q) / 2
        + (t / 2) * ((p * p - q * q) * math.cos(th) + 2 * p * q * math.sin(th))
    )
    if not math.isfinite(log_p0):
        raise RangeOverflowError("squared displacement exceeds the double range")
    return log_p0, t, u


def _deformed_weights(spec: DeformationSpec, n: np.ndarray) -> np.ndarray:
    """Weights of the deformed family at the photon numbers ``n`` (int array).

    Each family's formula is written once, on arrays: :func:`deformed_pn`
    reads one entry and :func:`deformed_distribution` a whole table.  The
    squeezed/correlated family takes its Hermite values from one
    ``hermite_sequence_log(u, max(n), tanh r)`` call.
    """
    kind = spec.kind
    if kind is DeformationKind.POISSON:
        x_bar = spec.alpha_mag2
        if x_bar == 0:
            return (n == 0).astype(float)
        return np.exp(-x_bar + n * math.log(x_bar) - log_factorials(int(n.max()))[n])
    if kind is DeformationKind.SQUEEZED_VACUUM:
        # the law at 0, 1, .., 2 top + 1 is read at n: P_2m at 2m, 0 between
        top = int(n.max()) >> 1
        table = np.zeros(2 * top + 2)
        t_half = math.tanh(abs(spec.r)) / 2
        if t_half == 0:
            table[0] = 1.0
        else:
            log_fact = log_factorials(2 * top)
            table[::2] = np.exp(
                -_log_cosh(spec.r)
                + 2 * np.arange(top + 1) * math.log(t_half)
                + log_fact[::2]
                - 2 * log_fact[: top + 1]
            )
        return table[n]
    if kind is DeformationKind.SQUEEZED_CORRELATED:
        log_p0, t, u = _squeezed_correlated_amplitude(spec)
        top = int(n.max())
        h_mag = hermite_sequence_log(u, top, t)[0][n]
        return np.exp(log_p0 + 2 * h_mag - n * math.log(2) - log_factorials(top)[n])
    if kind is DeformationKind.Q_COHERENT and spec.lam <= 0:
        raise InvalidSpecError("q-coherent family needs lam > 0")
    log_c0, logs = _deformed_log_weights(spec)
    out = np.zeros(len(n))
    inside = n < len(logs)
    out[inside] = np.exp(log_c0 + np.array(logs)[n[inside]])
    return out


def deformed_pn(spec: DeformationSpec, n: int) -> float:
    """Weight of counting n photons in the selected deformed family.

    Normalization constants of the f- and q-coherent families are computed
    internally from their truncated series (with a term-ratio convergence
    check); the remaining families have closed forms.

    Raises:
        DomainError: n < 0.
        InvalidSpecError: inconsistent deformation parameters (zero or
            exhausted f-values, non-positive lam, negative squeeze).
        DivergentSeriesError: the normalization series fails its ratio test.
    """
    if n < 0:
        raise DomainError("photon number must be nonnegative")
    return float(_deformed_weights(spec, np.array([n]))[0])


def deformed_distribution(
    spec: DeformationSpec, n_max: int | None = None
) -> PhotonDistribution:
    """Tabulated distribution of a deformed family."""

    def series(n_cut: int) -> np.ndarray:
        return _deformed_weights(spec, np.arange(n_cut + 1)).astype(complex)

    law = _closed_law(spec)
    return _build_distribution(series, n_max, law and _decay_cut(law, n_max))


def _closed_law(spec: DeformationSpec) -> _Law | None:
    """The :class:`gaussian_state._Law` of a closed law, read from the
    law's own numbers; None for the f- and q-coherent families.

    The Poisson law at mean x has a+- = 0, c+ = x and P0 = e^-x.  With
    t = tanh |r| the squeezed/correlated law P0 |h_n|^2 / (2^n n!) of
    :func:`_squeezed_correlated_amplitude` has a+- = -+t, and by Mehler's
    formula (DLMF section 18.18) c+ = 2 (Im u)^2 and c- = 2 (Re u)^2; the
    squeezed vacuum has u = 0.  At r = 0 these are the coherent law and
    the vacuum.  All are laws of valid states, so a t that rounds to 1
    puts the law past the cap.
    """
    if spec.kind is DeformationKind.POISSON:
        return _Law(0.0, 0.0, spec.alpha_mag2, 0.0, -spec.alpha_mag2, 1)
    if spec.kind is DeformationKind.SQUEEZED_VACUUM:
        t, log_p0, u = math.tanh(abs(spec.r)), -_log_cosh(spec.r), 0j
    elif spec.kind is DeformationKind.SQUEEZED_CORRELATED:
        log_p0, t, u = _squeezed_correlated_amplitude(spec)
    else:
        return None
    return _Law(-t, t, 2 * u.imag * u.imag, 2 * u.real * u.real, log_p0, 1)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _complex_json(z: complex) -> dict:
    """The JSON form of a complex number, shared by every exporter."""
    return {"re": z.real, "im": z.imag}


def distribution_to_csv(dist: PhotonDistribution) -> str:
    """CSV export: metadata comment lines, then rows n, re, im.

    The rows are formatted by one %-format over the whole table; '%.17g' % x
    is ``_fmt(x)``, character for character.  Where every imaginary part is
    +0.0, as in every real law, the im column is the literal ``0`` (which
    is ``_fmt(0.0)``) and only n and the real parts are formatted; a table
    with any other imaginary part, -0.0 and NaN among them, formats all
    three columns.
    """
    head = (
        f"# classification={dist.classification.value}\n"
        f"# truncation={dist.truncation}\n"
        f"# tail_bound={_fmt(dist.tail_bound)}\n"
        "n,re,im\n"
    )
    values = dist.values
    n = len(values)
    imag = values.imag
    if np.count_nonzero(imag) or np.count_nonzero(np.signbit(imag)):
        rows = zip(range(n), values.real.tolist(), imag.tolist())
        return head + "%d,%.17g,%.17g\n" * n % tuple(chain.from_iterable(rows))
    flat = [0] * (2 * n)
    flat[::2] = range(n)
    flat[1::2] = values.real.tolist()
    return head + "%d,%.17g,0\n" * n % tuple(flat)


def distribution_to_json(dist: PhotonDistribution) -> str:
    """JSON export mirroring the distribution fields."""
    return json.dumps(
        {
            "values": [_complex_json(v) for v in dist.values.tolist()],
            "truncation": dist.truncation,
            "tail_bound": dist.tail_bound,
            "classification": dist.classification.value,
        }
    )
