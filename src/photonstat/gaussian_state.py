"""One-mode Gaussian states described by their five Wigner parameters: the
quadrature covariance matrix

    Sigma = [[sigma_pp, sigma_pq],
             [sigma_pq, sigma_qq]]

and the means <q>, <p>.  The module derives the generating record that
the photon-number routes read (the R-matrix, the transformed displacement w
and the state's generating-law value `_Law`: the roots and exponents of
the generating function, ln P0 and the covariance's sign pattern,
computed once by `_generating_record`), the public R-matrix with its
Hermite arguments y, the no-photon probability P0, and the
quadrature-uncertainty verdict

    det Sigma = sigma_pp sigma_qq - sigma_pq^2 >= 1/4,  Sigma > 0.

States violating the inequality are deliberately representable: validity is
a query (`uncertainty_check`), never an invariant of the type.  In the
violation regime `p0` returns a complex diagnostic value instead of raising.

All types are frozen and all functions pure, so concurrent use is
unrestricted.  A state object keeps the generating record that the
photon-number routes computed from it, and the adaptive cutoff read from
that record's law (in its instance dict, outside the dataclass fields, so ==,
hash, repr and `to_dict` do not see them); both are functions of its
fields alone.  A cutoff at an explicit N is computed on each call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, RangeOverflowError, SingularDenominatorError
from .specfun import _LOG_DBL_MAX

__all__ = [
    "OneModeGaussianState",
    "XYTState",
    "RMatrix",
    "UncertaintyVerdict",
    "uncertainty_check",
    "r_matrix",
    "p0",
    "from_tau",
]

_STATE_FIELDS = ("sigma_pp", "sigma_qq", "sigma_pq", "mean_q", "mean_p")


def _check_squeeze(r: float) -> None:
    """Raise RangeOverflowError where e^(2|r|), the scale of a squeezed
    covariance, leaves the double range (|r| past about 354.89)."""
    if 2 * abs(r) > _LOG_DBL_MAX:
        raise RangeOverflowError(f"e^(2|r|) exceeds the double range at r = {r!r}")


@dataclass(frozen=True)
class OneModeGaussianState:
    """Five Wigner parameters of a one-mode Gaussian state.

    Vacuum units: the vacuum has sigma_pp = sigma_qq = 1/2, sigma_pq = 0.
    """

    sigma_pp: float
    sigma_qq: float
    sigma_pq: float = 0.0
    mean_q: float = 0.0
    mean_p: float = 0.0

    def __post_init__(self):
        for name in _STATE_FIELDS:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")

    @property
    def trace(self) -> float:
        return self.sigma_pp + self.sigma_qq

    @property
    def det(self) -> float:
        return self.sigma_pp * self.sigma_qq - self.sigma_pq * self.sigma_pq

    @property
    def is_centered(self) -> bool:
        return self.mean_q == 0.0 and self.mean_p == 0.0

    # -- common families -------------------------------------------------

    @classmethod
    def vacuum(cls) -> "OneModeGaussianState":
        return cls(0.5, 0.5, 0.0)

    @classmethod
    def thermal(cls, n_bar: float) -> "OneModeGaussianState":
        if n_bar < 0:
            raise DomainError("mean photon number must be nonnegative")
        return cls(n_bar + 0.5, n_bar + 0.5, 0.0)

    @classmethod
    def squeezed_vacuum(cls, r: float) -> "OneModeGaussianState":
        _check_squeeze(r)
        return cls(math.exp(2 * r) / 2, math.exp(-2 * r) / 2, 0.0)

    @classmethod
    def squeezed_correlated(
        cls, r: float, theta: float, mean_q: float = 0.0, mean_p: float = 0.0
    ) -> "OneModeGaussianState":
        _check_squeeze(r)
        ch, sh = math.cosh(2 * r), math.sinh(2 * r)
        return cls(
            0.5 * (ch + math.cos(theta) * sh),
            0.5 * (ch - math.cos(theta) * sh),
            0.5 * math.sin(theta) * sh,
            mean_q,
            mean_p,
        )

    @classmethod
    def coherent(cls, mean_q: float, mean_p: float) -> "OneModeGaussianState":
        return cls(0.5, 0.5, 0.0, mean_q, mean_p)

    # -- JSON state descriptor (consumed by the CLI) ---------------------

    @classmethod
    def from_dict(cls, data: dict) -> "OneModeGaussianState":
        missing = [k for k in _STATE_FIELDS if k not in data]
        if missing:
            raise DomainError(f"state descriptor missing fields: {', '.join(missing)}")
        values = []
        for k in _STATE_FIELDS:
            try:
                values.append(float(data[k]))
            except (TypeError, ValueError, OverflowError) as exc:
                raise DomainError(
                    f"state descriptor field {k} must be a number, got {data[k]!r}"
                ) from exc
        return cls(*values)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in _STATE_FIELDS}


@dataclass(frozen=True)
class XYTState:
    """Centered covariance triple (x, y, t) = (sigma_pp, sigma_qq, sigma_pq)."""

    x: float
    y: float
    t: float = 0.0

    def __post_init__(self):
        for name in ("x", "y", "t"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")

    def to_state(self) -> OneModeGaussianState:
        return OneModeGaussianState(self.x, self.y, self.t)


@dataclass(frozen=True)
class RMatrix:
    """The symmetric 2x2 matrix R and the Hermite arguments y1, y2.

    Invariants (enforced for real covariance input): r22 = conj(r11),
    y2 = conj(y1), r12 real.
    """

    r11: complex
    r22: complex
    r12: float
    y1: complex
    y2: complex


@dataclass(frozen=True)
class UncertaintyVerdict:
    """det Sigma, its slack above 1/4, and the validity flag."""

    det_sigma: float
    slack: float
    valid: bool


def uncertainty_check(state: OneModeGaussianState) -> UncertaintyVerdict:
    """Evaluate the quadrature uncertainty relation det Sigma >= 1/4.

    ``valid`` also requires Sigma > 0, which given det >= 1/4 means
    sigma_pp > 0: a negative-definite covariance such as (-1, -1, 0) clears
    det >= 1/4 but describes no state and has no photon-number law.
    """
    d = state.det
    slack = d - 0.25
    return UncertaintyVerdict(det_sigma=d, slack=slack, valid=slack >= 0 and state.sigma_pp > 0)


class _Law(NamedTuple):
    """The numbers of a one-mode generating function

        sum_n P_n z^n = P0 ((1 + a+ z)(1 + a- z))^(-1/2)
                        exp(c+ z / (1 + a+ z) + c- z / (1 + a- z)),

    with c+- >= 0 and ``log_p0`` = ln P0 (complex where P0 is; its real
    part stays exact where P0 underflows).  ``definite`` is the sign
    pattern of the law's covariance Sigma (:func:`_definite`): 1 where it
    is positive definite, -1 negative definite, 0 neither; the closed
    laws and the two-mode law are 1.  Each law builds its own value from
    its own numbers: the generating record, the xyt route's covariance
    invariants, the closed laws' tanh r and scaled Hermite argument.
    """

    a_plus: float
    a_minus: float
    c_plus: float
    c_minus: float
    log_p0: complex
    definite: int


def _definite(sigma_pp: float, det: float) -> int:
    """The sign pattern of a covariance from sigma_pp and det Sigma: 1
    positive definite, -1 negative definite, 0 neither (det <= 0).  A
    float det > 0 needs sigma_pp sigma_qq > sigma_pq^2 >= 0, so sigma_pp
    is then nonzero."""
    return 0 if not det > 0 else 1 if sigma_pp > 0 else -1


class _GeneratingRecord(NamedTuple):
    """What the photon-number routes read of a state, computed once.

    With D = Tr Sigma + 2 det Sigma + 1/2, S = sigma_pp - sigma_qq
    + 2i sigma_pq and z = <q> + i <p>:

        R11 = conj(R22) = conj(S) / D,    R12 = (1/2 - 2 det Sigma) / D,
        w = (conj(S) conj(z) + (Tr Sigma + 1) z) / D.

    w is sqrt(2) (R11 y1 + R12 y2) for the y1, y2 = conj(y1) of
    :func:`r_matrix`; the denominator of y, Tr - 2 det - 1/2 = -D a+ a-,
    cancels, so w is finite wherever D != 0.  ``law`` is the state's
    :class:`_Law`, with

        a+- = R12 -+ |R11|,  c+ = (Im v)^2 / 2,  c- = (Re v)^2 / 2,
        v = w exp(-i arg(R11) / 2),

    its covariance's sign pattern as ``definite``, and P0 = exp(log_p0) on the
    principal branch

        log_p0 = E - log(D / 2) / 2,
        E = (-<p>^2 (sigma_qq + 1/2) - <q>^2 (sigma_pp + 1/2)
             + 2 sigma_pq <q> <p>) / D,

    real where D > 0 and with imaginary part -pi/2 where D < 0.  Held as a
    log, P0 stays exact where it underflows (|<q>| of a few tens).
    """

    r11: complex
    r22: complex
    r12: float
    w: complex
    law: _Law


def _generating_record(state: OneModeGaussianState) -> _GeneratingRecord:
    """The :class:`_GeneratingRecord` of a state.  Its law's c+- are inf,
    and log_p0 is -inf or NaN, where the squared displacement leaves the
    double range (means past about 1e154).

    Raises:
        SingularDenominatorError: D = Tr + 2 det + 1/2 vanishes.
        RangeOverflowError: D leaves the double range (a covariance entry
            past about 1e154).
    """
    den = state.trace + 2 * state.det + 0.5
    if den == 0:
        raise SingularDenominatorError("Tr + 2 det + 1/2 vanishes for this state")
    if not math.isfinite(den):
        raise RangeOverflowError("Tr + 2 det + 1/2 exceeds the double range")
    s_bar = complex(state.sigma_pp - state.sigma_qq, -2 * state.sigma_pq)
    r11, r12 = s_bar / den, (0.5 - 2 * state.det) / den
    q, p = state.mean_q, state.mean_p
    z = complex(q, p)
    w = (s_bar * z.conjugate() + (state.trace + 1) * z) / den
    v = w * cmath.exp(-0.5j * cmath.phase(r11))
    m = abs(r11)
    expo = (
        -p * p * (state.sigma_qq + 0.5) - q * q * (state.sigma_pp + 0.5)
        + 2 * state.sigma_pq * q * p
    ) / den
    law = _Law(
        r12 - m, r12 + m, v.imag * v.imag / 2, v.real * v.real / 2,
        expo - 0.5 * cmath.log(den / 2), _definite(state.sigma_pp, state.det),
    )
    return _GeneratingRecord(r11, r11.conjugate(), r12, w, law)


def r_matrix(state: OneModeGaussianState) -> RMatrix:
    """Derive the R-matrix and Hermite arguments of a state.

    R11 = conj(R22) = (sigma_pp - sigma_qq - 2i sigma_pq) / D,
    R12 = (1/2 - 2 det Sigma) / D,  D = Tr Sigma + 2 det Sigma + 1/2,
    the R of the generating record that the photon-number routes read.

    For centered states y1 = y2 = 0 identically.  Otherwise

    y1 = conj(y2) = [(Tr Sigma - 1) <z*> + (sigma_pp - sigma_qq + 2i sigma_pq) <z>]
                    / (Tr Sigma - 2 det Sigma - 1/2),
    <z> = (<q> + i <p>) / sqrt(2).

    The routes do not read y: they read w = sqrt(2) (R11 y1 + R12 y2) from
    the record, which stays finite where the y denominator vanishes (every
    displaced coherent state, for one).

    Raises:
        SingularDenominatorError: either denominator vanishes.
    """
    rec = _generating_record(state)
    if state.is_centered:
        y1 = 0j
    else:
        y_den = state.trace - 2 * state.det - 0.5
        if y_den == 0:
            raise SingularDenominatorError("Tr - 2 det - 1/2 vanishes for this state")
        z_mean = complex(state.mean_q, state.mean_p) / math.sqrt(2)
        y1 = (
            (state.trace - 1) * z_mean.conjugate()
            + complex(state.sigma_pp - state.sigma_qq, 2 * state.sigma_pq) * z_mean
        ) / y_den
    return RMatrix(r11=rec.r11, r22=rec.r22, r12=rec.r12, y1=y1, y2=y1.conjugate())


def p0(state: OneModeGaussianState) -> float | complex:
    """Probability of counting zero photons, exp(log_p0) of the state's
    generating record:

        P0 = (D / 2)^(-1/2)
             * exp[ (-<p>^2 (sigma_qq + 1/2) - <q>^2 (sigma_pp + 1/2)
                     + 2 sigma_pq <q> <p>) / D ],    D = Tr Sigma + 2 det Sigma + 1/2.

    For a centered state this reduces to 2 (2x - 4t^2 + 2y + 4xy + 1)^(-1/2).
    A float where D > 0; where D < 0 (an uncertainty-violating state) the
    complex diagnostic value on the principal branch is returned instead of
    raising, and the downstream distribution classifies as non-probability.
    0.0 where P0 underflows.

    Raises:
        SingularDenominatorError: D vanishes.
        RangeOverflowError: D leaves the double range.
    """
    log_p0 = _generating_record(state).law.log_p0
    return cmath.exp(log_p0) if log_p0.imag else math.exp(log_p0.real)


def from_tau(tau: float, y: float, t: float = 0.0) -> XYTState:
    """Centered state with det Sigma = 1/4 - tau, i.e. x = (1/4 - tau + t^2) / y.

    tau > 0 violates the uncertainty relation by construction; tau = 0 sits
    exactly on the boundary.

    Raises:
        DomainError: tau, y or t is not finite.
        SingularDenominatorError: y = 0.
    """
    for name, v in (("tau", tau), ("y", y), ("t", t)):
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")
    if y == 0:
        raise SingularDenominatorError("y must be nonzero to solve for x")
    return XYTState(x=(0.25 - tau + t * t) / y, y=y, t=t)
