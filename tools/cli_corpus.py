"""Digest the photonstat CLI's output over a fixed list of invocations.

Usage: python3 tools/cli_corpus.py CHECKOUT

Runs each invocation below as ``python -m photonstat.cli ...`` with
``CHECKOUT/src`` on PYTHONPATH and prints one line per invocation: the
sha256 of its stdout, stderr and exit code, then its arguments.  Running it
on two checkouts and diffing the outputs shows which invocations changed
their output; ``tools/corpus_diff.py`` runs the same invocations and says
by how much.  Standard library only; not part of the test suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# each token below is replaced by the path of a state descriptor file:
# STATE a displaced squeezed state, FAR_STATE one far from the origin, whose
# Laguerre factors pass 1e284, SQ3_STATE the squeezed vacuum at r = 3 as a
# Gaussian state, whose Hermite factors span about 27000 nats at N = 4096,
# COHERENT_STATE a displaced vacuum, SURFACE_STATE a displaced state on
# Tr - 2 det - 1/2 = 0, where the Hermite arguments y once had a vanishing
# denominator, P0_UNDERFLOW_STATE the squeezed state r = 0.5 displaced to
# <q> = 60, whose P0 underflows to 0.0, WIDE_STATE a covariance whose
# det leaves the double range, and CENTERED_STATE a centered correlated
# state, whose Laguerre factors take the closed form at x = 0 (like
# SQ3_STATE, but with a+ != -a-), VIOLATING_STATE a centered state with
# det Sigma < 1/4, whose law is a signed real sequence,
# DISPLACED_VIOLATING_STATE a displaced positive-definite Sigma with
# det Sigma = 0.0024, whose Hermite table loses its mass to cancellation,
# and NON_NUMERIC_STATE a descriptor with a field that is not a number
DESCRIPTORS = {
    "STATE": {
        "sigma_pp": 0.8, "sigma_qq": 0.4, "sigma_pq": 0.1, "mean_q": 0.3, "mean_p": -0.2
    },
    "FAR_STATE": {
        "sigma_pp": 1.2, "sigma_qq": 0.8, "sigma_pq": 0.2, "mean_q": 20.0, "mean_p": 10.0
    },
    "SQ3_STATE": {
        "sigma_pp": math.exp(6) / 2, "sigma_qq": math.exp(-6) / 2, "sigma_pq": 0.0,
        "mean_q": 0.0, "mean_p": 0.0
    },
    "COHERENT_STATE": {
        "sigma_pp": 0.5, "sigma_qq": 0.5, "sigma_pq": 0.0, "mean_q": 1.0, "mean_p": 0.5
    },
    "SURFACE_STATE": {
        "sigma_pp": 0.51, "sigma_qq": 0.5, "sigma_pq": 0.0, "mean_q": 1.0, "mean_p": 0.5
    },
    "P0_UNDERFLOW_STATE": {
        "sigma_pp": 0.5 * (math.cosh(1) + math.sinh(1)),
        "sigma_qq": 0.5 * (math.cosh(1) - math.sinh(1)),
        "sigma_pq": 0.0, "mean_q": 60.0, "mean_p": 0.0
    },
    "WIDE_STATE": {
        "sigma_pp": 0.5, "sigma_qq": 0.5, "sigma_pq": 1e155, "mean_q": 0.0, "mean_p": 0.0
    },
    "CENTERED_STATE": {
        "sigma_pp": 1.3, "sigma_qq": 0.7, "sigma_pq": 0.25, "mean_q": 0.0, "mean_p": 0.0
    },
    "VIOLATING_STATE": {
        "sigma_pp": 0.3, "sigma_qq": 0.6, "sigma_pq": 0.1, "mean_q": 0.0, "mean_p": 0.0
    },
    "DISPLACED_VIOLATING_STATE": {
        "sigma_pp": 0.18167952100237902, "sigma_qq": 0.017483699616411906,
        "sigma_pq": 0.028158037131206473, "mean_q": -0.6564138200562226,
        "mean_p": -1.914582857884865
    },
    "NON_NUMERIC_STATE": {
        "sigma_pp": "abc", "sigma_qq": 0.5, "sigma_pq": 0.0, "mean_q": 0.0, "mean_p": 0.0
    },
}

FAMILIES = (
    "--family gaussian --state STATE",
    "--family gaussian --state STATE --route laguerre",
    "--family xyt --x 0.6 --y 0.7 --t 0.1",
    "--family xyt --y 5 --tau 4",
    "--family two-mode --s1 0.25 --s2 0.8",
    "--family poisson --alpha 1.5",
    "--family f-coherent --alpha 0.8",
    "--family q-coherent --alpha 1.3 --lambda 2",
    "--family squeezed-vacuum --r 1.0",
    "--family squeezed-correlated --r 0.7 --mean-q 0.3",
)

INVOCATIONS = (
    ["oracle"]
    + [f"violation --y {y}" for y in ("0.5", "1", "2", "5")]
    + [f"figures --fig {fig}" for fig in (1, 2, 3, 4)]
    + [f"{cmd} {fam}" for cmd in ("dist", "entropy") for fam in FAMILIES]
    + [
        "dist --family squeezed-vacuum --r 1.0 --n-max 8 --format json",
        "entropy --family poisson --alpha 1.0 --partition 3 --format json",
        "entropy --family xyt --y 5 --tau 4 --format json",
        "inequality --family gaussian --state STATE --form hermite",
        "inequality --family gaussian --state STATE --form laguerre --format json",
        "inequality --family squeezed-vacuum --r 1.0 --n-max 600",
        "inequality --family poisson --alpha 1.0 --format json",
        "inequality --family xyt --y 5 --tau 4",
        "inequality --family xyt --y 5 --tau 4 --format json",
        "dist --family poisson --alpha 1 --n-max 0",
        "entropy --family poisson --alpha 1 --partition 1",
        "violation --y 5 --partition 1",
        # wide enough for several Cauchy-kernel blocks, and complex phases
        "dist --family gaussian --state STATE --n-max 256",
        "dist --family gaussian --state STATE --route laguerre --n-max 256",
        "entropy --family gaussian --state STATE --n-max 1024",
        "dist --family xyt --y 5 --tau 4 --n-max 256",
        "dist --family squeezed-correlated --r 1.5 --mean-q 1",
        # a displaced law with a wavy tail, a cutoff at the cap, thermal(10)
        "dist --family squeezed-correlated --r 0.7 --theta 0.5 --mean-q 0.3 --mean-p -0.2",
        "dist --family squeezed-vacuum --r 3",
        "dist --family xyt --x 10.5 --y 10.5",
        "dist --family gaussian --state FAR_STATE",
        "dist --family gaussian --state FAR_STATE --route laguerre",
        "dist --family gaussian --state SQ3_STATE",
        "dist --family gaussian --state SQ3_STATE --route laguerre",
        # past the 512 exact log factorials and the first doubled table end
        "dist --family squeezed-vacuum --r 2.9 --n-max 9000",
        # an explicit f profile: long enough to converge, and too short
        "dist --family f-coherent --alpha 0.8 --f-values 1,1.5,2,2.5,3,3.5,4,4.5,5,5.5,6,6.5",
        "dist --family f-coherent --alpha 0.8 --f-values 1,1,1",
        # P0 underflows while the Hermite factors overflow; at 200 the
        # cutoff's tail bound at the cap is not below 1
        "dist --family squeezed-correlated --r 0.5 --mean-q 38",
        "dist --family squeezed-correlated --r 0.5 --mean-q 60",
        "dist --family squeezed-correlated --r 0.5 --mean-q 200",
        "dist --family gaussian --state COHERENT_STATE",
        "dist --family gaussian --state COHERENT_STATE --route laguerre",
        "dist --family gaussian --state SURFACE_STATE",
        "dist --family gaussian --state SURFACE_STATE --route laguerre",
        # large finite flags: cosh r and the squared displacement overflow
        "dist --family squeezed-vacuum --r 800",
        "dist --family squeezed-correlated --r 800 --mean-q 1",
        "dist --family squeezed-correlated --r 0.5 --mean-q 1e155",
        "dist --family squeezed-correlated --r 0 --mean-q 1e155",
        # tanh r, the law's decay ratio, rounds to 1 (at r = 400 also e^(2r)
        # leaves the double range while the weights do not all underflow)
        "dist --family squeezed-vacuum --r 20",
        "dist --family squeezed-vacuum --r 400",
        # both routes where P0 underflows; a law whose tail bound at the
        # cap is not below 1; det and every weight past the double range
        "dist --family gaussian --state P0_UNDERFLOW_STATE",
        "dist --family gaussian --state P0_UNDERFLOW_STATE --route laguerre",
        "dist --family squeezed-vacuum --r 4",
        "dist --family gaussian --state WIDE_STATE",
        "dist --family poisson --alpha 1e5",
        # a centered correlated state at an explicit N, on both routes
        "dist --family gaussian --state CENTERED_STATE --n-max 256",
        "dist --family gaussian --state CENTERED_STATE --route laguerre --n-max 256",
        # q within a few ulps of 1 on a displaced state: the cutoff's ratios
        # rho between q and 1 round onto q or 1 (all of them at r = 19)
        "dist --family squeezed-correlated --r 16 --theta 0.3 --mean-q 1",
        "dist --family squeezed-correlated --r 19 --theta 0.3 --mean-q 1",
        # the xyt route at an explicit N on a valid state
        "dist --family xyt --x 0.6 --y 0.7 --t 0.1 --n-max 256",
        # report shapes: the complex entropy CSV on another branch, a pair
        # form as CSV, and the sorted inequality CSV with the closed form
        "entropy --family xyt --y 5 --tau 4 --branch 1",
        "inequality --family gaussian --state CENTERED_STATE --form laguerre",
        "inequality --family poisson --alpha 1.0",
        # a pair form on a law that is not a probability, past m = 2 and on
        # a family other than gaussian; a descriptor field that is not a number
        "inequality --family gaussian --state VIOLATING_STATE --form hermite",
        "inequality --family gaussian --state VIOLATING_STATE --form laguerre --format json",
        "inequality --family gaussian --state STATE --form hermite --partition 3",
        "inequality --family poisson --alpha 1.0 --form laguerre",
        "dist --family gaussian --state NON_NUMERIC_STATE",
        # both pair forms where P0 underflows to 0.0
        "inequality --family gaussian --state P0_UNDERFLOW_STATE --form hermite",
        "inequality --family gaussian --state P0_UNDERFLOW_STATE --form laguerre --format json",
        # explicit N on the squeezed vacuum: the kept terms miss 0.892 and
        # 0.164 of the mass, which the tail at that N must cover
        "dist --family squeezed-vacuum --r 5 --n-max 100",
        "dist --family squeezed-vacuum --r 1 --n-max 2",
        # a closed law whose equivalent covariance loses det to cancellation
        "dist --family squeezed-correlated --r 10 --mean-q 1",
        # x = -0.5 makes 4 det + 2 Tr + 1 exactly 0: a Singular sweep row
        "violation --y 1 --tau-min 0.75 --tau-max 0.75 --tau-step 0.1",
        # the conventional n! weight of the f-coherent series
        "dist --family f-coherent --alpha 0.8 --f-convention factorial",
        # a proven tail checks the mass of a signed law: the Hermite table
        # sums to 1.7e17, the Laguerre one to 1
        "dist --family gaussian --state DISPLACED_VIOLATING_STATE --route hermite",
        "dist --family gaussian --state DISPLACED_VIOLATING_STATE --route laguerre",
        # a negative-definite covariance with det = 1: no law exists
        "dist --family xyt --x -1 --y -1",
        # 1 / tanh r overflows: the law is the coherent one
        "dist --family squeezed-correlated --r 1e-320 --mean-q 1",
        # the two-mode law cut in its pair index: past the 4096 cap its
        # proven tail is 1.82, which an explicit N reports
        "dist --family two-mode --s1 0.95 --s2 0.999",
        "dist --family two-mode --s1 0.95 --s2 0.999 --n-max 4096",
        # a negative-definite covariance with det = 0.09 < 1/4: no law exists
        "dist --family xyt --x -0.3 --y -0.3",
        # 1 / tanh r is a double, but the square of the unscaled Hermite
        # argument is not
        "dist --family squeezed-correlated --r 5.6e-309 --theta 0.3 --mean-q 1 --mean-p -0.5",
        # the squeezed/correlated law at and near r = 0, where it is the
        # coherent law, and far out, where its cut needs rho near c / N
        "dist --family squeezed-correlated --r 0 --theta 0.3 --mean-q 1 --mean-p -0.5",
        "dist --family squeezed-correlated --r 1e-17 --theta 0.3 --mean-q 1 --mean-p -0.5",
        "dist --family squeezed-correlated --r 0 --mean-q 85",
        # a positive-definite covariance whose q rounds to 1, det far below 1/4
        "dist --family xyt --x 1e-17 --y 1",
        # non-finite sweep bounds: a domain error, not a traceback
        "violation --y 1 --tau-max inf",
        "violation --y 1 --tau-step nan",
        "figures --fig 1 --param-max nan",
        # a cell's own error labels its row: at tau = 0.6000000000000001,
        # 4 det + 2 Tr + 1 is a rounding residue (RangeOverflow); at y = -1
        # the covariance is negative definite on every row (Nonexistent)
        "violation --y 0.7 --tau-min 0 --tau-max 3 --tau-step 0.05",
        "violation --y -1 --tau-min -0.2 --tau-max 0.2 --tau-step 0.1",
        # the xyt route's 2F1 recurrence over a long table, and a pure
        # state (det = 1/4 exactly, z = 2), whose odd terms are exact zeros
        "dist --family xyt --x 20 --y 15 --t 1 --n-max 4096",
        "dist --family xyt --x 2 --y 0.125 --n-max 4096",
        # (x + y)^2 overflows on every row: each is labelled, none aborts
        "violation --y 1e300",
    ]
)


@contextlib.contextmanager
def invocations():
    """(line, argv) for each invocation, with the descriptor files written
    to a temporary directory that lasts as long as the context."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for token, descriptor in DESCRIPTORS.items():
            paths[token] = Path(tmp) / f"{token.lower()}.json"
            paths[token].write_text(json.dumps(descriptor))
        yield [(line, [str(paths.get(tok, tok)) for tok in line.split()]) for line in INVOCATIONS]


def run(checkout: Path, argv: list[str]) -> tuple[bytes, bytes, int]:
    """(stdout, stderr, exit code) of the CLI of ``checkout`` on ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "photonstat.cli", *argv],
        capture_output=True, env=env, cwd=checkout,
    )
    return proc.stdout, proc.stderr, proc.returncode


def digest(checkout: Path, argv: list[str]) -> str:
    stdout, stderr, code = run(checkout, argv)
    h = hashlib.sha256()
    for part in (stdout, stderr, str(code).encode()):
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def main() -> int:
    if len(sys.argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    checkout = Path(sys.argv[1]).resolve()
    with invocations() as corpus:
        for line, argv in corpus:
            print(f"{digest(checkout, argv)}  {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
