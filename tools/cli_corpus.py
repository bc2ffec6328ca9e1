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
# Gaussian state, whose Hermite factors span about 27000 nats at N = 4096
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
        # cutoff's tail bound passes the double range at the cap
        "dist --family squeezed-correlated --r 0.5 --mean-q 38",
        "dist --family squeezed-correlated --r 0.5 --mean-q 60",
        "dist --family squeezed-correlated --r 0.5 --mean-q 200",
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
