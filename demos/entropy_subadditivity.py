#!/usr/bin/env python3
"""Block-partition Shannon information and the subadditivity inequality.

A single photon-number sequence is relabeled as a bipartite table via
n -> (floor(n/m), n mod m); subadditivity of Shannon entropy then yields a
nonnegative information margin for *any* probability sequence -- which is
what turns each polynomial representation of the distribution into a
polynomial inequality.
"""

import math

import numpy as np

from photonstat import (
    DeformationKind,
    DeformationSpec,
    OneModeGaussianState,
    PartitionScheme,
    block_entropies,
    deformed_distribution,
    distribution_from_values,
    hermite_inequality_margin,
    laguerre_inequality_margin,
    oracle_poisson_blocks,
    poisson_parity_information,
)

print("=" * 72)
print("1. Poisson statistics under the pair partition")
print("=" * 72)
print("\n  x̄      H(12)     H(1)      H(2)      I = H(1)+H(2)-H(12)   parity form")
for x_bar in (0.1, 0.5, 1.0, 2.0, 5.0):
    dist = deformed_distribution(
        DeformationSpec(DeformationKind.POISSON, alpha_mag2=x_bar), 256
    )
    rep = block_entropies(dist, PartitionScheme(2))
    closed = poisson_parity_information(x_bar)
    print(
        f"  {x_bar:4.1f}  {rep.h_joint:8.5f}  {rep.h_sub1:8.5f}  {rep.h_sub2:8.5f}"
        f"  {rep.information:19.6f}   {closed:.6f}"
    )
print(
    "\n  The classic closed form reproduces H(2) exactly; the margin I is the\n"
    "  mutual information of the two labels and is strictly smaller whenever\n"
    "  both parities populate a block."
)

print()
print("=" * 72)
print("2. Three-block partition against the roots-of-unity filter")
print("=" * 72)
x_bar = 2.0
dist = deformed_distribution(
    DeformationSpec(DeformationKind.POISSON, alpha_mag2=x_bar), 256
)
rep = block_entropies(dist, PartitionScheme(3))
masses = [oracle_poisson_blocks(x_bar, 3, j) for j in range(3)]
oracle_h2 = -math.fsum(m * math.log(m) for m in masses)
print(f"\n  residue masses (roots of unity): {[f'{m:.6f}' for m in masses]}")
print(f"  H(2) from the distribution: {rep.h_sub2:.12f}")
print(f"  H(2) from the filter:       {oracle_h2:.12f}")

print()
print("=" * 72)
print("3. Squeezed vacuum: the pair information vanishes identically")
print("=" * 72)
print("\n    r      I(m=2)")
for r in (0.0, 0.5, 1.0, 2.0, 3.0):
    dist = deformed_distribution(
        DeformationSpec(DeformationKind.SQUEEZED_VACUUM, r=r), 8000
    )
    rep = block_entropies(dist, PartitionScheme(2))
    print(f"  {r:5.2f}   {rep.information:+.2e}")
print("\n  Only even counts occur, so the parity label is deterministic.")

print()
print("=" * 72)
print("4. Each polynomial-form margin is the pair information of its route's law")
print("=" * 72)
state = OneModeGaussianState(1.5, 0.9, 0.3)
from photonstat import information, pn_hermite, pn_laguerre  # noqa: E402

pair = PartitionScheme(2)
print(f"\n  Hermite-route information : {information(pn_hermite(state, 200), pair):.12f}")
print(f"  two-index Hermite margin  : {hermite_inequality_margin(state, 200):.12f}")
print(f"  Laguerre-route information: {information(pn_laguerre(state, 200), pair):.12f}")
print(f"  Laguerre-product margin   : {laguerre_inequality_margin(state, 200):.12f}")
print("\n  P0, which the Hermite terms H_kk / k! divide out, cancels from the margin.")

print()
print("=" * 72)
print("5. Subadditivity holds for arbitrary probability sequences")
print("=" * 72)
rng = np.random.default_rng(0)
worst = math.inf
for _ in range(200):
    p = rng.random(int(rng.integers(2, 200)))
    p /= p.sum()
    dist = distribution_from_values(p)
    for m in (2, 3, 5):
        rep = block_entropies(dist, PartitionScheme(m))
        worst = min(worst, rep.information)
print(f"\n  smallest margin over 200 random sequences x m in (2,3,5): {worst:.3e}")
