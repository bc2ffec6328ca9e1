"""Photon-number distributions of one-mode Gaussian states, two-mode squeezed
light and deformed-oscillator states.

Three independently coded representations of the one-mode Gaussian
distribution are provided (two-index Hermite, Laguerre, and the direct
centered-covariance sum); on valid states they agree termwise, which is the
central cross-check of this package.  For covariances violating the
quadrature uncertainty relation the same formulas return negative or complex
values, and every distribution carries a classification verdict:

* ``PROBABILITY``: real and nonnegative to within 1e-12, and summing to one
  within the truncation tail bound.
* ``SIGNED_REAL``: real but with at least one entry below -1e-12.
* ``COMPLEX``: at least one entry whose imaginary part reaches 1e-12.

The two 1e-12 tolerances are fixed, so no caller can move a verdict.

Each series is a finite double sum "row n = e^{C[n]} sum_k A[k] B[n-k]";
every route builds its own A, B and C as log-magnitudes and phases, and
:func:`specfun.log_cauchy_rows` sums all rows at once by a tilted
convolution, keeping each row's log-magnitude far outside the double
range.

Truncation is adaptive unless an explicit ``n_max`` is given.  Every
one-mode Gaussian series (the three routes, and the squeezed-vacuum and
squeezed/correlated laws through their equivalent state) decays like q^n,
with q the larger root modulus of its generating function, known in
closed form from the covariance.  Where q < 1 the cutoff N is chosen once,
before any term is computed, as the smallest N whose proven bound on the
omitted mass (doubled, for headroom) is below 1e-12, capped at 4096; the
series is evaluated once and that bound is its ``tail_bound``.  The other
series (Poisson, f- and q-coherent, the two-mode law, the violation
family, and Gaussian states with q >= 1) start at 32 and double until the
estimated geometric tail drops below 1e-12 or the cutoff reaches 4096.
That estimate ignores magnitudes below 1e3 eps of the largest term, which
are roundoff.  Sequences whose tail grows (the uncertainty-violating
families are asymptotic, not convergent) are trimmed at their smallest
term and the residual is reported in ``tail_bound``.

A distribution's ``values`` are one read-only complex128 array from the
series through truncation and classification to the exporters.

Everything here is pure and immutable after construction; grid sweeps over
states are embarrassingly parallel with deterministic per-cell results.
"""

from __future__ import annotations

import cmath
import enum
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import takewhile

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
from .gaussian_state import OneModeGaussianState, XYTState, from_tau, p0, r_matrix
from .specfun import (
    _LOG_DBL_MAX,
    _legendre_columns,
    _legendre_scaled,
    _roots,
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
_NOISE_FLOOR = 1e3 * sys.float_info.epsilon

_SQRT2 = math.sqrt(2)


class Classification(str, enum.Enum):
    PROBABILITY = "Probability"
    SIGNED_REAL = "SignedReal"
    COMPLEX = "Complex"


@dataclass(frozen=True, eq=False)
class PhotonDistribution:
    """A truncated photon-number sequence with tail estimate and verdict.

    ``values[n]`` is the (possibly complex) weight of counting n photons,
    held as a read-only complex128 array; ``truncation`` is the largest
    retained n; ``tail_bound`` bounds the omitted mass.  Where a one-mode
    Gaussian series with decay ratio q < 1 was sized from q (no explicit
    ``n_max``), it is the proven bound of :func:`_decay_cut`; for every
    other series it is estimated from the geometric decay of the last
    retained terms, and is ``inf`` where they do not decay.
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
    nz = np.flatnonzero(mags > _NOISE_FLOOR * mags.max(initial=0.0))
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
    nz = np.flatnonzero(mags > 0.0)
    if nz.size < 8 or not (np.diff(mags[nz[-5:]]) > 0).all():
        return values, mags, False
    i_min = nz[np.argmin(mags[nz])]
    if i_min >= nz[-1] - 4 or mags[i_min] >= mags[nz[0]]:
        return values, mags, False
    return values[: i_min + 1], mags[: i_min + 1], True


def _classify(values: np.ndarray, tail_bound: float) -> Classification:
    if (np.abs(values.imag) >= _TOL_IMAG).any():
        return Classification.COMPLEX
    if (values.real < -_TOL_NEG).any():
        return Classification.SIGNED_REAL
    total = math.fsum(values.real.tolist())
    if 1 - tail_bound - _NORM_SLOP <= total <= 1 + _NORM_SLOP:
        return Classification.PROBABILITY
    raise NormalizationError(
        f"nonnegative weight sequence sums to {total:.12g} against tail bound "
        f"{tail_bound:.3g}: the formal series fits no classification"
    )


def _finalize(values: np.ndarray, tail: float) -> PhotonDistribution:
    nonzero = np.flatnonzero(values[1:])  # trailing zeros are dropped, values[0] kept
    values = values[: nonzero[-1] + 2 if nonzero.size else 1]
    return PhotonDistribution(
        values=values,
        truncation=len(values) - 1,
        tail_bound=tail,
        classification=_classify(values, tail),
    )


# the Cauchy-estimate ratios rho = q + (1 - q) f tried for a displaced state
_RHO_STEPS = tuple(2.0**-k for k in range(1, 13))


def _generating_roots(state: OneModeGaussianState) -> tuple[float, float]:
    """(a+, a-) = (1 - 4 det -+ 2h) / (4 det + 2 Tr + 1), h = sqrt(Tr^2 - 4 det)."""
    x, y, t = state.sigma_pp, state.sigma_qq, state.sigma_pq
    det = x * y - t * t
    h = math.hypot(x - y, 2 * t)
    c = 4 * det + 2 * (x + y) + 1
    return (1 - 4 * det - 2 * h) / c, (1 - 4 * det + 2 * h) / c


def _decay_cut(state: OneModeGaussianState) -> tuple[int, float] | None:
    """(N, tail bound) of the state's photon-number series, or None where q >= 1.

    The generating function of the distribution is (eigenvalues l+ >= l- of
    Sigma, means d+, d- along their eigenvectors, h = l+ - l-)

        sum_n P_n z^n = P0 ((1 + a+ z)(1 + a- z))^(-1/2)
                        exp(c+ z / (1 + a+ z) + c- z / (1 + a- z)),

        a+- = (1 - 4 det -+ 2h) / (4 det + 2 Tr + 1),  c+- = 2 d+-^2 / (1 + Tr +- h)^2,

    and q = max(|a+|, |a-|) = (|1 - 4 det| + 2h) / |4 det + 2 Tr + 1|.  For a
    centered state |P_n| <= |P0| q^n: the coefficients of the square-root
    factor are at most sum_k C(2k, k) C(2n-2k, n-k) q^n / 4^n = q^n.  For a
    displaced one Cauchy's estimate on |z| = 1/rho, q < rho < 1, gives
    |P_n| <= |P0| B rho^n with B = prod (1 - |a|/rho)^(-1/2) exp(c / (rho + a)),
    the exponent's real part peaking at z = 1/rho.  Summing the bound past N
    and doubling it gives the tail 2 |P0| B rho^(N+1) / (1 - rho).  N is the
    smallest N >= 1 with tail <= 1e-12 for some rho = q + (1 - q) 2^-k,
    k = 1..12, capped at 4096; the tail reported is the least over k at N.
    """
    x, y, t = state.sigma_pp, state.sigma_qq, state.sigma_pq
    tr = x + y
    h = math.hypot(x - y, 2 * t)
    a_plus, a_minus = _generating_roots(state)
    q = max(abs(a_plus), abs(a_minus))
    if not q < 1:
        return None
    # floored so that a P0 below the double range still gives a finite cut
    log_p0 = math.log(2 * max(abs(p0(state)), sys.float_info.min) / _TAIL_TARGET)
    mp, mq = state.mean_p, state.mean_q
    d2 = mp * mp + mq * mq
    if d2 == 0:
        if q == 0:  # the vacuum
            return 1, 0.0
        rho, log_b = [q], [0.0]
    else:
        d2_plus = d2 / 2
        if h:
            d2_plus += ((mp * mp - mq * mq) * (x - y) + 4 * mp * mq * t) / (2 * h)
            d2_plus = min(max(d2_plus, 0.0), d2)
        c_plus = 2 * d2_plus / (1 + tr + h) ** 2
        c_minus = 2 * (d2 - d2_plus) / (1 + tr - h) ** 2
        rho = [q + (1 - q) * f for f in _RHO_STEPS]
        log_b = [
            c_plus / (r + a_plus) + c_minus / (r + a_minus)
            - 0.5 * (math.log1p(-abs(a_plus) / r) + math.log1p(-abs(a_minus) / r))
            for r in rho
        ]
    # ln(tail / 1e-12) = front + (N + 1) ln rho for each candidate rho
    fronts = [(log_p0 + b - math.log1p(-r), math.log(r)) for r, b in zip(rho, log_b)]
    n = min(_ADAPTIVE_CAP, max(1, math.ceil(min(f / -lr for f, lr in fronts) - 1)))
    log_tail = min(f + (n + 1) * lr for f, lr in fronts)
    if log_tail > _LOG_DBL_MAX:  # at the cap, for a displacement far past it
        raise RangeOverflowError(f"tail bound at N = {n} exceeds the double range")
    return n, _TAIL_TARGET * math.exp(log_tail)


def _build_distribution(series, n_max, *, state=None) -> PhotonDistribution:
    """Run ``series(N) -> complex ndarray`` under the truncation policy.

    Where ``state`` (the one-mode Gaussian state whose photon statistics
    the series gives) has q < 1 and no ``n_max`` is given, the series is
    evaluated once at the cutoff and with the tail bound of
    :func:`_decay_cut`.  Every other series starts at N = 32 and doubles
    until the sampled geometric tail estimate of :func:`_tail_estimate` is
    below 1e-12, the series is trimmed as divergent, or N reaches the 4096
    cap; an explicit ``n_max`` is the one pass of that loop.  A
    ``RangeOverflowError`` from the series propagates.
    """
    if n_max is not None and n_max < 0:
        raise DomainError("n_max must be nonnegative")
    cut = None if n_max is not None or state is None else _decay_cut(state)
    if cut is not None:
        n, tail = cut
        return _finalize(series(n), tail)
    n = _ADAPTIVE_START if n_max is None else n_max
    while True:
        vals, mags, trimmed = _trim_divergent(series(n))
        tail = _tail_estimate(mags)
        done = n_max is not None or trimmed or tail < _TAIL_TARGET or n >= _ADAPTIVE_CAP
        # growing past any probability scale: divergent, stop extending
        if done or (not math.isfinite(tail) and (mags > 1e30).any()):
            return _finalize(vals, tail)
        n *= 2


def distribution_from_values(values) -> PhotonDistribution:
    """Wrap an explicit weight sequence in a classified distribution."""
    values = np.asarray(values, dtype=complex)
    return _finalize(values, _tail_estimate(np.abs(values)))


# ---------------------------------------------------------------------------
# one-mode Gaussian routes
# ---------------------------------------------------------------------------

# The chain linking the printed y1 to the Hermite/Laguerre arguments is off
# by sqrt(2) relative to the closed squeezed/correlated form; rescaling the
# y's here restores termwise agreement with that form and unit total mass
# for displaced states.
_Y_ARG_SCALE = _SQRT2


def _hermite_ratio_seq(rm, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """log-signed P_n / P0 = H_nn^{R}(y1, y2) / n! for n = 0..n_max."""
    a, b, (c_mag, c_ph) = hermite_2d_factors(
        n_max, rm, _Y_ARG_SCALE * rm.y1, _Y_ARG_SCALE * rm.y2
    )
    mag, ph = log_cauchy_rows(*a, *b, n_max + 1)
    return mag + c_mag + log_factorials(n_max), ph * c_ph


def _laguerre_ratio_seq(rm, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """log-signed P_n / P0 for n = 0..n_max through the Laguerre-product sum

        P_n / P0 = (-1)^n sum_s (r12 - rho)^s L_s(x1) (r12 + rho)^(n-s) L_(n-s)(x2)
    """
    ys1 = _Y_ARG_SCALE * rm.y1
    ys2 = _Y_ARG_SCALE * rm.y2
    rho, s1, s2 = _roots(rm)
    if rho == 0:
        # both bases are r12, so only x1 + x2 enters (DLMF 18.18(iii)); in
        # general x1 + x2 = (r12 quad + rho skew) / 4, and rho skew =
        # R11 ys1^2 + R22 ys2^2 vanishes with R11 = R22 = 0
        x1 = x2 = 0.25 * rm.r12 * ys1 * ys2
    else:
        quad = 2 * ys1 * ys2
        skew = (s1 / s2) * ys1 * ys1 + (s2 / s1) * ys2 * ys2
        x1 = 0.125 * (rm.r12 - rho) * (quad - skew)
        x2 = 0.125 * (rm.r12 + rho) * (quad + skew)
    a_mag, a_ph = log_powers(rm.r12 - rho, n_max)
    b_mag, b_ph = log_powers(rm.r12 + rho, n_max)
    l1_mag, l1_ph = laguerre_half_sequence(x1, n_max)
    l2_mag, l2_ph = laguerre_half_sequence(x2, n_max)
    mag, ph = log_cauchy_rows(
        a_mag + l1_mag, a_ph * l1_ph, b_mag + l2_mag, b_ph * l2_ph, n_max + 1
    )
    return mag, ph * log_powers(-1, n_max)[1]


def _gaussian_series(state: OneModeGaussianState, ratio_fn):
    rm = r_matrix(state)
    p0v = complex(p0(state))

    def series(n_max: int) -> np.ndarray:
        return p0v * log_signed_values(*ratio_fn(rm, n_max))

    return series


def pn_hermite(
    state: OneModeGaussianState, n_max: int | None = None
) -> PhotonDistribution:
    """Photon-number distribution through the two-index Hermite representation.

    Works for any finite covariance, including uncertainty-violating ones
    (the result then classifies as SignedReal or Complex).

    Raises:
        SingularDenominatorError: structural denominators of the R-matrix
            or P0 vanish.
    """
    return _build_distribution(
        _gaussian_series(state, _hermite_ratio_seq), n_max, state=state
    )


def pn_laguerre(
    state: OneModeGaussianState, n_max: int | None = None
) -> PhotonDistribution:
    """Photon-number distribution through the Laguerre-product representation.

    Independent of :func:`pn_hermite` except for the shared state
    parametrization; their termwise agreement is a package-level invariant.
    """
    return _build_distribution(
        _gaussian_series(state, _laguerre_ratio_seq), n_max, state=state
    )


def pn_centered_xyt(
    state: XYTState, n_max: int | None = None
) -> PhotonDistribution:
    """Distribution of a centered covariance triple, coded directly from the
    covariance invariants (no R-matrix plumbing):

        P_n = 2 n! sum_k (-1)^k |H_{n-k}(0)|^2 / (k! ((n-k)!)^2)
              (1 - 4 det)^k (Tr^2 - 4 det)^{(n-k)/2} / (4 det + 2 Tr + 1)^{n+1/2}

    Valid on both sides of the uncertainty boundary; for det < -(2 Tr + 1)/4
    the half-integer power makes the values purely imaginary.

    Raises:
        SingularDenominatorError: 4 det + 2 Tr + 1 = 0.
    """
    tr = state.x + state.y
    det = state.x * state.y - state.t * state.t
    a = 1 - 4 * det
    b = tr * tr - 4 * det  # (x - y)^2 + 4 t^2 >= 0
    c = 4 * det + 2 * tr + 1
    if c == 0:
        raise SingularDenominatorError("4 det + 2 Tr + 1 vanishes for this state")
    log_c = cmath.log(complex(c))

    def series(n_max: int) -> np.ndarray:
        n = np.arange(n_max + 1)
        log_fact = log_factorials(n_max)
        a_mag, a_ph = log_powers(-a, n_max)  # absorbs the (-1)^k alternation
        b_mag, b_ph = log_powers(b, n_max // 2)
        b_mag = b_mag - 2 * log_fact[: n_max // 2 + 1]
        # odd-degree Hermite vanishes at 0: row n sums k = n mod 2, m = (n - k) / 2
        mag = np.full(n_max + 1, -np.inf)
        ph = np.zeros(n_max + 1)
        for parity in (0, 1):
            mag[parity::2], ph[parity::2] = log_cauchy_rows(
                (a_mag - log_fact)[parity::2], a_ph[parity::2], b_mag, b_ph,
                len(n[parity::2]),
            )
        mag += math.log(2) + log_fact - (n + 0.5) * log_c.real
        if log_c.imag:
            ph = ph * np.exp(-1j * (n + 0.5) * log_c.imag)
        return log_signed_values(mag, ph)

    return _build_distribution(series, n_max, state=state.to_state())


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

    Where both of those bases are positive the weights are positive with a
    divergent tail; no classification applies there and a
    NormalizationError is raised -- the covariance route
    (:func:`pn_centered_xyt`) is the meaningful diagnostic in that corner.
    Immediately above the boundary the optimal (smallest-term) truncation
    may keep so few terms that the values pass the probability window
    within their large tail uncertainty; boundary detection should always
    use the covariance route.

    Raises:
        DomainError: tau < 0 (the family parameterizes violations only).
        SingularDenominatorError: y = 0 or the half-power base vanishes.
        NormalizationError: positive divergent corner described above.
    """
    if tau < 0:
        raise DomainError("tau must be nonnegative")
    xyt = from_tau(tau, y, t)
    tr = xyt.x + xyt.y
    bp = tr * tr - 1 - 4 * tau
    w = tr + 1 - 4 * tau
    if w == 0:
        raise SingularDenominatorError("x + y + 1 - 4 tau vanishes")
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

    return _build_distribution(series, n_max)


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
    """P_0, P_2, ..., P_{2 k_max} of :func:`two_mode_p2k` in O(k_max).

    F_k = 2F1(-k, 1/2; 1; z), z = 1 - lo/hi, follows the contiguous
    relation in the first parameter (DLMF 15.5.11)

        (k+1) F_{k+1} = (2k + 1 - (k + 1/2) z) F_k - k (1 - z) F_{k-1},

    from F_0 = 1, F_1 = 1 - z/2; then P_2k = sqrt((1-s1)(1-s2)) hi^k F_k.
    Its characteristic roots are 1 and 1 - z = lo/hi, so the forward
    direction is stable.  It is run on the differences D_k = F_k - F_{k-1},

        (k+1) D_{k+1} = k (1 - z) D_k - (z/2) F_k,    F_{k+1} = F_k + D_{k+1},

    whose two terms share their sign.  Where the roots nearly coincide
    (s1 close to s2) the three-term form loses about k eps (1.1e-13 at
    k = 2048 for s = (0.95, 0.999)); the difference form stays within
    5e-15 of 40-digit values for k <= 2048 on s in {0, .05, .25, .5, .8,
    .95, .999}^2.  At z = 1 it is the Chu-Vandermonde product; at s1 = s2
    it keeps F_k = 1 exactly.

    Raises:
        DomainError: either fraction outside [0, 1) or k_max < 0.
    """
    lo, hi = _two_mode_args(s1, s2, k_max)
    z = 1 - lo / hi if hi else 0.0  # both unsqueezed: F_k = 1, hi^k = 0^k
    f, d = [1.0], 0.0
    for k in range(k_max):
        d = (k * (1 - z) * d - 0.5 * z * f[k]) / (k + 1)
        f.append(f[k] + d)
    front = math.sqrt((1 - s1) * (1 - s2))
    return np.array([front * hi**k * f[k] for k in range(k_max + 1)])


def two_mode_p2k_distribution(
    s1: float, s2: float, n_max: int | None = None
) -> PhotonDistribution:
    """Total-photon-number distribution (odd counts are zero)."""

    def series(n_cut: int) -> np.ndarray:
        out = np.zeros(n_cut + 1, dtype=complex)
        out[::2] = two_mode_p2k_sequence(s1, s2, n_cut // 2)
        return out

    return _build_distribution(series, n_max)


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
    columns = _legendre_columns(params.f3, tops)
    flat = np.array([entry for column in columns.values() for entry in column])
    start = np.cumsum([0] + [len(column) for column in columns.values()])
    parity = np.add.outer(np.arange(n1_max + 1), np.arange(n2_max + 1)) % 2
    n1, n2 = np.nonzero(parity == 0)
    l, m = (n1 + n2) // 2, abs(n1 - n2) // 2
    cell = start[m] + l - m
    table = np.zeros((n1_max + 1, n2_max + 1))
    table[n1, n2] = _joint_weights(params, n1, n2, flat[cell, 0], flat[cell, 1])
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
        if n >= 8:
            top = max(logs)
            if logs[-1] < top - 620:  # below double-precision underflow
                break
            if n >= 20000:
                raise DivergentSeriesError(
                    "normalization series failed the term-ratio test"
                )
            if n >= 40 and logs[-1] > logs[-2] > logs[-3] > top + 1:
                raise DivergentSeriesError("normalization series diverges")
        n += 1
    top = max(logs)
    log_norm = top + math.log(math.fsum(math.exp(v - top) for v in logs))
    return -log_norm, tuple(logs)


def _squeezed_correlated_amplitude(spec: DeformationSpec) -> tuple[float, complex]:
    """(ln P0, Hermite argument g) of the squeezed/correlated family; at
    large displacement P0 underflows while the Hermite factors overflow."""
    r, th = spec.r, spec.theta
    q, p = spec.mean_q, spec.mean_p
    tanh_r = math.tanh(r)
    g = (
        cmath.exp(-1j * th / 2)
        * math.sqrt(tanh_r)
        * (complex(q, -p) / 2 + cmath.exp(1j * th) / tanh_r * complex(q, p) / 2)
    )
    log_p0 = (
        -math.log(math.cosh(r))
        - (p * p + q * q) / 2
        + (tanh_r / 2) * ((p * p - q * q) * math.cos(th) + 2 * p * q * math.sin(th))
    )
    return log_p0, g


def _deformed_weights(spec: DeformationSpec, n: np.ndarray) -> np.ndarray:
    """Weights of the deformed family at the photon numbers ``n`` (int array).

    Each family's formula is written once, on arrays: :func:`deformed_pn`
    reads one entry and :func:`deformed_distribution` a whole table.  The
    squeezed/correlated family takes its Hermite values from one
    ``hermite_sequence_log(g, max(n))`` call.
    """
    kind = spec.kind
    if kind is DeformationKind.POISSON:
        x_bar = spec.alpha_mag2
        if x_bar == 0:
            return (n == 0).astype(float)
        return np.exp(-x_bar + n * math.log(x_bar) - log_factorials(int(n.max()))[n])
    if kind is DeformationKind.SQUEEZED_VACUUM:
        out = np.zeros(len(n))
        even = n % 2 == 0
        m = n[even] // 2
        t_half = math.tanh(abs(spec.r)) / 2
        if t_half == 0:
            out[even] = m == 0
        else:
            log_fact = log_factorials(int(n.max()))
            out[even] = np.exp(
                -math.log(math.cosh(spec.r))
                + 2 * m * math.log(t_half)
                + log_fact[2 * m]
                - 2 * log_fact[m]
            )
        return out
    if kind is DeformationKind.SQUEEZED_CORRELATED:
        if spec.r < 0:
            raise InvalidSpecError("squeeze modulus r must be nonnegative")
        if spec.r == 0:
            # unsqueezed limit: coherent statistics at |alpha|^2 = (q^2+p^2)/2
            x_bar = (spec.mean_q**2 + spec.mean_p**2) / 2
            return _deformed_weights(
                DeformationSpec(DeformationKind.POISSON, alpha_mag2=x_bar), n
            )
        log_p0, g = _squeezed_correlated_amplitude(spec)
        h_mag = hermite_sequence_log(g, int(n.max()))[0][n]
        return np.exp(
            log_p0
            + n * math.log(math.tanh(spec.r) / 2)
            - log_factorials(int(n.max()))[n]
            + 2 * h_mag
        )
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

    return _build_distribution(series, n_max, state=_equivalent_state(spec))


def _equivalent_state(spec: DeformationSpec) -> OneModeGaussianState | None:
    """The one-mode Gaussian state whose photon statistics a squeezed law is.

    None for the other families, for r = 0 (a Poisson law), and where tanh r
    rounds to 1, so q would too (this also keeps e^(2r) finite).
    """
    if math.tanh(abs(spec.r)) == 1.0:
        return None
    if spec.kind is DeformationKind.SQUEEZED_VACUUM and spec.r:
        return OneModeGaussianState.squeezed_vacuum(spec.r)
    if spec.kind is DeformationKind.SQUEEZED_CORRELATED and spec.r > 0:
        return OneModeGaussianState.squeezed_correlated(
            spec.r, spec.theta, spec.mean_q, spec.mean_p
        )
    return None


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return format(v, ".17g")


def distribution_to_csv(dist: PhotonDistribution) -> str:
    """CSV export: metadata comment lines, then rows n, re, im."""
    lines = [
        f"# classification={dist.classification.value}",
        f"# truncation={dist.truncation}",
        f"# tail_bound={_fmt(dist.tail_bound)}",
        "n,re,im",
    ]
    for n, v in enumerate(dist.values.tolist()):
        lines.append(f"{n},{_fmt(v.real)},{_fmt(v.imag)}")
    return "\n".join(lines) + "\n"


def distribution_to_json(dist: PhotonDistribution) -> str:
    """JSON export mirroring the distribution fields."""
    return json.dumps(
        {
            "values": [{"re": v.real, "im": v.imag} for v in dist.values.tolist()],
            "truncation": dist.truncation,
            "tail_bound": dist.tail_bound,
            "classification": dist.classification.value,
        }
    )
