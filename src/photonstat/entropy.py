"""Block-partition Shannon entropies and the subadditivity audit.

A single probability sequence p_0, p_1, ... is relabeled through the
bijection n -> (floor(n/m), n mod m) into a bipartite table, giving

    H(12) = -sum_n p_n ln p_n                      (joint)
    H(1)  = -sum_k q_k ln q_k,  q_k = sum_j p_{mk+j}   (block sums)
    H(2)  = -sum_j r_j ln r_j,  r_j = sum_k p_{mk+j}   (residue classes)

and the information I = H(1) + H(2) - H(12), which is nonnegative by
subadditivity (it is the mutual information of the two labels).  All
entropies are in nats; 0 ln 0 = 0 throughout.

For sequences with negative or complex entries (uncertainty-violating
states) the same quantities are formed with the multi-branch complex
logarithm ln z = ln|z| + i(arg z + 2 pi b), arg in (-pi, pi].  Two readings
of the branch-resolved subsystem entropies are exposed: "blocked" applies
the block/residue sums exactly as above, "verbatim" keeps the subsystem-1
sum literally identical to the joint one and uses the magnitude sum inside
the subsystem-2 logarithm; see `complex_information`.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassificationError,
    DivergentSeriesError,
    DomainError,
    NormalizationError,
)
from .gaussian_state import OneModeGaussianState
from .photon_dist import (
    Classification,
    PhotonDistribution,
    TwoModeJointDistribution,
    pn_hermite,
    pn_laguerre,
)

__all__ = [
    "PartitionScheme",
    "EntropyReport",
    "ComplexEntropyReport",
    "block_entropies",
    "information",
    "subadditivity_check",
    "joint_entropy_report",
    "complex_information",
    "hermite_inequality_margin",
    "laguerre_inequality_margin",
    "poisson_parity_information",
    "poisson_block3_information_trig",
]

SUBADDITIVITY_TOL = 1e-12


@dataclass(frozen=True)
class PartitionScheme:
    """Block size m >= 2, an integer, of the relabeling n -> (floor(n/m), n mod m)."""

    block_size: int = 2

    def __post_init__(self):
        object.__setattr__(self, "block_size", operator.index(self.block_size))
        if self.block_size < 2:
            raise DomainError("block_size must be at least 2")


@dataclass(frozen=True)
class EntropyReport:
    """Joint/subsystem entropies (nats) and the information margin."""

    h_joint: float
    h_sub1: float
    h_sub2: float
    information: float
    subadditive: bool


@dataclass(frozen=True)
class ComplexEntropyReport:
    """Branch-resolved complex entropies; ``reading`` records which
    subsystem-entropy convention produced them."""

    h_joint: complex
    h_sub1: complex
    h_sub2: complex
    information: complex
    branch_index: int = 0
    reading: str = "blocked"


def _xlogx(p: float) -> float:
    return 0.0 if p <= 0.0 else p * math.log(p)


def _shannon(masses: np.ndarray) -> float:
    """-sum p ln p over the positive masses, each term p * math.log(p)
    rounded once and the terms added exactly by fsum.

    The logarithm is ``math.log``, not ``np.log``: numpy's vectorized log
    can differ from the C library's in the last bit (on 0.35 % of uniform
    inputs on an AVX-512 x86-64 host with numpy 2.4), which would move the
    entropies' last digits.
    """
    p = masses[masses > 0].tolist()
    return -math.fsum(map(operator.mul, p, map(math.log, p)))


def _probabilities(dist: PhotonDistribution) -> np.ndarray:
    if dist.classification is not Classification.PROBABILITY:
        raise ClassificationError(
            f"distribution classifies as {dist.classification.value}; "
            "route non-probability input through complex_information"
        )
    return np.maximum(dist.values.real, 0.0)


def _blocks(p: np.ndarray, m: int) -> np.ndarray:
    """p zero-filled to whole blocks of m, one block per row (at least one):
    its row sums are the block sums, its column sums the residue-class sums."""
    rows = max(1, -(-len(p) // m))
    flat = np.zeros(rows * m, dtype=p.dtype)
    flat[: len(p)] = p
    return flat.reshape(rows, m)


def _table_report(table: np.ndarray) -> EntropyReport:
    """Entropies of a 2-d table of masses: joint, row sums, column sums,
    and their information.  Each marginal is the last partial sum of a
    cumsum, which adds in index order, where np.sum adds pairwise and
    would move the last digits of the information."""
    h_joint = _shannon(table.ravel())
    h1 = _shannon(table.cumsum(axis=1)[:, -1])
    h2 = _shannon(table.cumsum(axis=0)[-1])
    info = h1 + h2 - h_joint
    return EntropyReport(h_joint, h1, h2, info, info >= -SUBADDITIVITY_TOL)


def block_entropies(dist: PhotonDistribution, scheme: PartitionScheme) -> EntropyReport:
    """Joint, block and residue-class entropies plus the information margin.

    Raises:
        ClassificationError: the distribution is not a probability sequence.
    """
    return _table_report(_blocks(_probabilities(dist), scheme.block_size))


def information(dist: PhotonDistribution, scheme: PartitionScheme) -> float:
    """Information margin H(1) + H(2) - H(12) of the partition."""
    return block_entropies(dist, scheme).information


def subadditivity_check(
    dist: PhotonDistribution, scheme: PartitionScheme
) -> tuple[bool, float]:
    """(holds, margin) for the subadditivity inequality."""
    report = block_entropies(dist, scheme)
    return report.subadditive, report.information


def joint_entropy_report(joint: TwoModeJointDistribution) -> EntropyReport:
    """Entropies of a two-index table: joint, the two marginals, and their
    mutual information (always nonnegative).

    Raises:
        NormalizationError: table mass differs from 1 beyond tail_bound + 1e-9.
    """
    table = joint.values
    total = float(table.sum())
    if abs(total - 1.0) > joint.tail_bound + 1e-9:
        raise NormalizationError(
            f"joint table mass {total:.12g} outside tolerance "
            f"(tail_bound {joint.tail_bound:.3g})"
        )
    return _table_report(table)


# ---------------------------------------------------------------------------
# complex (branch-resolved) entropies
# ---------------------------------------------------------------------------


def _log_branch(z: complex, branch: int) -> complex:
    return complex(math.log(abs(z)), cmath.phase(z) + 2 * math.pi * branch)


def _entropy_term(z: complex, branch: int) -> complex:
    return 0j if z == 0 else z * _log_branch(z, branch)


def _complex_entropy(zs: np.ndarray, branch: int) -> complex:
    return -sum(_entropy_term(z, branch) for z in zs.tolist())


def complex_information(
    dist: PhotonDistribution,
    scheme: PartitionScheme,
    branch: int = 0,
    reading: str = "blocked",
) -> ComplexEntropyReport:
    """Branch-resolved entropies of a signed/complex weight sequence.

    ln z = ln|z| + i(arg z + 2 pi * branch) with the principal argument in
    (-pi, pi], so purely imaginary weights get phase +pi/2 (positive
    imaginary part) or -pi/2 (negative).

    reading = "blocked": subsystem entropies from block and residue-class
    sums, exactly like :func:`block_entropies`; a real positive input at
    branch 0 then reproduces the real report.

    reading = "verbatim": the subsystem-1 sum is kept literally identical
    to the joint one (so it cancels in the information) and subsystem 2
    uses -(sum z)(ln sum|z| + i arg(sum z) + 2 pi i b).

    Raises:
        TypeError: ``branch`` is not an integer.
        DivergentSeriesError: the sequence failed its tail ratio test
            (``tail_bound`` is not finite).
    """
    branch = operator.index(branch)
    if reading not in ("blocked", "verbatim"):
        raise DomainError(f"unknown reading {reading!r}")
    if not math.isfinite(dist.tail_bound):
        raise DivergentSeriesError(
            "weight sequence has no convergent tail within the truncation"
        )
    vals = dist.values
    m = scheme.block_size
    h_joint = _complex_entropy(vals, branch)
    if reading == "blocked":
        table = _blocks(vals, m)
        h1 = _complex_entropy(table.cumsum(axis=1)[:, -1], branch)
        h2 = _complex_entropy(table.cumsum(axis=0)[-1], branch)
        info = h1 + h2 - h_joint
    else:
        h1 = h_joint
        total = sum(vals.tolist())
        mag_total = math.fsum(abs(z) for z in vals.tolist())
        if total == 0 or mag_total == 0:
            h2 = 0j
        else:
            h2 = -total * complex(
                math.log(mag_total), cmath.phase(total) + 2 * math.pi * branch
            )
        info = h2  # h1 cancels h_joint identically under this reading
    return ComplexEntropyReport(
        h_joint=h_joint,
        h_sub1=h1,
        h_sub2=h2,
        information=info,
        branch_index=branch,
        reading=reading,
    )


# ---------------------------------------------------------------------------
# polynomial-form inequality margins
# ---------------------------------------------------------------------------


def hermite_inequality_margin(
    state: OneModeGaussianState, n_max: int | None = None
) -> float:
    """Margin of the m = 2 entropy inequality written over the two-index
    Hermite terms H_kk / k! (the distribution with its zero-photon weight
    divided out).  P0 cancels from the margin, which is the information of
    the Hermite-route distribution under the pair partition.

    Raises:
        ClassificationError: the state's distribution is not a probability.
    """
    return information(pn_hermite(state, n_max), PartitionScheme(2))


def laguerre_inequality_margin(
    state: OneModeGaussianState, n_max: int | None = None
) -> float:
    """Margin of the m = 2 entropy inequality over the Laguerre-route terms
    (block sums of D(k, s) L_s(x1) L_{k-s}(x2)); the inner sums are the
    probabilities themselves, so the margin is the information of the
    Laguerre-route distribution under the pair partition.

    Raises:
        ClassificationError: the state's distribution is not a probability.
    """
    return information(pn_laguerre(state, n_max), PartitionScheme(2))


# ---------------------------------------------------------------------------
# Poisson closed forms
# ---------------------------------------------------------------------------


def poisson_parity_information(x_bar: float) -> float:
    """Residue-class (parity) entropy of a Poisson distribution under the
    pair partition, in closed form:

        -e^-x (sinh x ln(e^-x sinh x) + cosh x ln(e^-x cosh x))

    This is the m = 2 ``h_sub2`` component; it tends to 0 as x -> 0 and to
    ln 2 as x -> infinity.  Note it exceeds the full information margin
    whenever both parities are populated within a block.
    """
    if x_bar < 0:
        raise DomainError("x_bar must be nonnegative")
    even = (1 + math.exp(-2 * x_bar)) / 2  # e^-x cosh x
    odd = (1 - math.exp(-2 * x_bar)) / 2  # e^-x sinh x
    return -(_xlogx(even) + _xlogx(odd))


def poisson_block3_information_trig(x_bar: float) -> float:
    """A commonly quoted trigonometric closed form for the three-residue
    Poisson entropy.  Retained verbatim for cross-checking only: its third
    term reuses the second residue mass as a prefactor where the third
    belongs, so it disagrees with the roots-of-unity evaluation (the
    oracle suite reports both values side by side)."""
    x = x_bar
    e = math.exp(-1.5 * x)
    s3 = math.sqrt(3)
    line1_mass = (1 / 3) * (1 - 2 * e * math.sin((math.pi - 3 * s3 * x) / 6))
    line2_mass = (1 / 3) * (2 * e * math.cos(s3 * x / 2) + 1)
    line3_arg = 1 / 3 - (2 / 3) * e * math.sin((math.pi + 3 * s3 * x) / 6)
    out = 0.0
    if line1_mass > 0:
        out -= line1_mass * math.log(line1_mass)
    if line2_mass > 0:
        out -= line2_mass * math.log(line2_mass)
    if line1_mass > 0 and line3_arg > 0:
        out -= line1_mass * math.log(line3_arg)
    return out
