"""Command-line front end.

Subcommands
-----------
dist        photon-number distribution of a selected family
entropy     block-partition entropy report for a distribution
inequality  entropy-inequality margin report (which polynomial form ran)
violation   tau-sweep over the uncertainty-violation boundary
figures     two-column CSV data for the four standard information sweeps
oracle      run the independent cross-check suite (exit code = aggregate)

Output is byte-deterministic for identical configuration: floats are
rendered with 17 significant digits and rows follow the grid order.  Every
error path exits nonzero after printing a single machine-parsable line
``error: <reason-code>: <message>`` to stderr.

The entropy and inequality reports print the fields of their report
dataclass, in field order, through one encoder: JSON is one object, with
a complex field as an object of keys re and im; CSV is a header line and
one row, where a complex field k is the columns k_re and k_im,
branch_index is named branch, and booleans are lowercase.  The real
inequality CSV sorts its columns.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from decimal import Decimal

from .entropy import (
    PartitionScheme,
    block_entropies,
    complex_information,
    poisson_parity_information,
)
from .errors import (
    ClassificationError,
    DivergentSeriesError,
    DomainError,
    InvalidSpecError,
    NormalizationError,
    ParityError,
    PhotonStatError,
    PoleError,
    RangeOverflowError,
    SingularDenominatorError,
)
from .gaussian_state import OneModeGaussianState, XYTState, from_tau, uncertainty_check
from .oracle import run_suite, suite_passed, verdicts_to_json_lines
from .photon_dist import (
    DeformationKind,
    DeformationSpec,
    PhotonDistribution,
    _complex_json,
    _fmt,
    deformed_distribution,
    distribution_to_csv,
    distribution_to_json,
    mean_photon_xyt,
    pn_centered_xyt,
    pn_hermite,
    pn_laguerre,
    pn_violation,
    two_mode_p2k_distribution,
)

_REASON_CODES = (
    (ParityError, "parity-error"),
    (PoleError, "pole-error"),
    (SingularDenominatorError, "singular-denominator"),
    (ClassificationError, "classification-error"),
    (DivergentSeriesError, "divergent-series"),
    (NormalizationError, "normalization-error"),
    (InvalidSpecError, "invalid-spec"),
    (RangeOverflowError, "range-overflow"),
    (DomainError, "domain-error"),
    (PhotonStatError, "internal-error"),
)

_FAMILIES = ("gaussian", "xyt", "two-mode", *(kind.value for kind in DeformationKind))


def _grid(start: float, stop: float, step: float) -> list[float]:
    """Points start + i*step for integer i, up to stop with half a step of slack.

    Scaling the step itself puts the default violation sweep's -1 + 10*0.1
    on tau = 0 exactly; np.arange scales the rounded (start + step) - start
    and lands at -2.2e-16, on the wrong side of the boundary.  Other starts
    round to +-1e-16 there (-0.3 + 3*0.1 gives 5.6e-17), so the point whose
    decimal value, as the flags are written, is zero is set to 0 exactly.

    Raises:
        DomainError: start, stop or step is not finite.
    """
    if not all(map(math.isfinite, (start, stop, step))):
        raise DomainError(
            f"sweep start, stop and step must be finite, got {start!r}, {stop!r}, {step!r}"
        )
    d_start, d_step = Decimal(repr(start)), Decimal(repr(step))
    return [
        0.0 if d_start + i * d_step == 0 else start + i * step
        for i in range(math.ceil((stop + step / 2 - start) / step))
    ]


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _gaussian_state(args) -> OneModeGaussianState:
    """The state of ``--family gaussian``, read from its ``--state`` file."""
    if not args.state:
        raise DomainError("--family gaussian requires --state <json>")
    try:
        with open(args.state) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read state file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"state file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError("state descriptor must be a JSON object")
    return OneModeGaussianState.from_dict(data)


def _f_values(raw: str | None) -> tuple[float, ...]:
    if not raw:
        return ()
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise DomainError(f"--f-values must be comma-separated floats: {exc}") from exc


def _deformation_from_args(args) -> DeformationSpec:
    """The spec of a deformation family; its kind reads the fields it needs."""
    return DeformationSpec(
        DeformationKind(args.family),
        alpha_mag2=args.alpha * args.alpha,
        lam=args.lam,
        r=args.r,
        theta=args.theta,
        f_values=_f_values(args.f_values),
        mean_q=args.mean_q,
        mean_p=args.mean_p,
        f_convention=args.f_convention,
    )


def _distribution_from_args(args) -> PhotonDistribution:
    fam = args.family
    if fam == "gaussian":
        route = pn_laguerre if args.route == "laguerre" else pn_hermite
        return route(_gaussian_state(args), args.n_max)
    if fam == "xyt":
        if args.y is None:
            raise DomainError("--family xyt requires --y")
        if args.tau is not None:
            if args.x is not None:
                implied = from_tau(args.tau, args.y, args.t).x
                if abs(args.x - implied) > 1e-9 * max(1.0, abs(implied)):
                    raise DomainError(
                        f"--x {args.x} inconsistent with --tau {args.tau} "
                        f"(implied x = {implied})"
                    )
            return pn_violation(args.tau, args.y, args.t, args.n_max)
        if args.x is None:
            raise DomainError("--family xyt requires --x or --tau")
        return pn_centered_xyt(XYTState(args.x, args.y, args.t), args.n_max)
    if fam == "two-mode":
        if args.s1 is None or args.s2 is None:
            raise DomainError("--family two-mode requires --s1 and --s2")
        return two_mode_p2k_distribution(args.s1, args.s2, args.n_max)
    return deformed_distribution(_deformation_from_args(args), args.n_max)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_dist(args) -> int:
    dist = _distribution_from_args(args)
    if args.format == "json":
        _emit(distribution_to_json(dist) + "\n", args.out)
    else:
        _emit(distribution_to_csv(dist), args.out)
    return 0


def _report_fields(dist: PhotonDistribution, args) -> dict:
    """Fields of the block-entropy report of ``dist``; for a distribution
    that is not a probability law, those of its complex information, with a
    notice on stderr saying why it replaced the real report."""
    scheme = PartitionScheme(args.partition)
    try:
        return asdict(block_entropies(dist, scheme))
    except ClassificationError:
        sys.stderr.write(
            f"notice: classification {dist.classification.value}; "
            "reporting complex information\n"
        )
        return asdict(complex_information(dist, scheme, branch=args.branch))


def _emit_report(args, fields: dict, sort_csv: bool = False) -> None:
    """Print a report's fields as one JSON object, or as a CSV header line
    and one row of the same fields: a complex field k becomes the columns
    k_re and k_im, branch_index is named branch, and ``sort_csv`` sorts
    the columns."""
    if args.format == "json":
        obj = {k: _complex_json(v) if isinstance(v, complex) else v for k, v in fields.items()}
        _emit(json.dumps(obj) + "\n", args.out)
        return
    cells = {}
    for key, value in fields.items():
        if isinstance(value, complex):
            cells[key + "_re"], cells[key + "_im"] = _fmt(value.real), _fmt(value.imag)
        elif isinstance(value, bool):
            cells[key] = str(value).lower()
        else:
            cells["branch" if key == "branch_index" else key] = (
                _fmt(value) if isinstance(value, float) else str(value)
            )
    keys = sorted(cells) if sort_csv else list(cells)
    _emit(",".join(keys) + "\n" + ",".join(cells[k] for k in keys) + "\n", args.out)


def _cmd_entropy(args) -> int:
    _emit_report(args, _report_fields(_distribution_from_args(args), args))
    return 0


def _cmd_inequality(args) -> int:
    """The entropy report plus its information as the margin of ``--form``;
    a pair form takes m = 2 over a Gaussian state and picks the route."""
    if args.form != "block":
        if args.family != "gaussian" or args.partition != 2:
            raise DomainError(f"--form {args.form} takes --family gaussian and --partition 2 only")
        args.route = args.form
    fields = _report_fields(_distribution_from_args(args), args)
    if "reading" in fields:  # the complex information replaced the real report
        fields["form"] = "complex-" + fields["reading"]
        _emit_report(args, fields)
        return 0
    fields["margin"] = fields["information"]
    fields["form"] = "block-partition" if args.form == "block" else args.form + "-pair"
    if args.family == "poisson":
        fields["parity_entropy_closed_form"] = poisson_parity_information(args.alpha * args.alpha)
    _emit_report(args, fields, sort_csv=True)
    return 0


# the label of a sweep row whose covariance law raises: its denominator
# vanishes, it leaves the double range, or no law exists (q >= 1 on a
# negative-definite covariance)
_ROW_LABELS = {
    SingularDenominatorError: "Singular",
    RangeOverflowError: "RangeOverflow",
    DivergentSeriesError: "Nonexistent",
}


def _cmd_violation(args) -> int:
    if args.tau_step <= 0:
        raise DomainError("--tau-step must be positive")
    taus = _grid(args.tau_min, args.tau_max, args.tau_step)
    scheme = PartitionScheme(args.partition)
    lines = [
        "tau,x,slack,classification,mean_value,mean_abs,"
        "i_blocked_re,i_blocked_im,i_verbatim_re,i_verbatim_im"
    ]
    for tau in taus:
        xyt = from_tau(tau, args.y, args.t)
        verdict = uncertainty_check(xyt.to_state())
        try:
            dist = pn_centered_xyt(xyt, args.n_max)
            label = dist.classification.value
        except tuple(_ROW_LABELS) as exc:
            dist, label = None, _ROW_LABELS[type(exc)]
        try:
            mean = mean_photon_xyt(xyt.x, xyt.y)
            mean_s, mean_a = _fmt(mean), _fmt(abs(mean))
        except SingularDenominatorError:
            mean_s = mean_a = "nan"
        # the complex entropies are defined over the tau family; below the
        # boundary the plain distribution carries them (real information)
        if tau >= 0:
            try:
                dist_i = pn_violation(tau, args.y, args.t, args.n_max)
            except (NormalizationError, SingularDenominatorError, RangeOverflowError):
                dist_i = None
        else:
            dist_i = dist
        cols = [_fmt(tau), _fmt(xyt.x), _fmt(verdict.slack), label, mean_s, mean_a]
        for reading in ("blocked", "verbatim"):
            if dist_i is None:
                cols += ["nan", "nan"]
                continue
            try:
                rep = complex_information(dist_i, scheme, args.branch, reading)
                cols += [_fmt(rep.information.real), _fmt(rep.information.imag)]
            except DivergentSeriesError:
                cols += ["nan", "nan"]
        lines.append(",".join(cols))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_FIGURE_DEFAULTS = {
    # figure id: (parameter name, start, stop, step)
    1: ("x_bar", 0.0, 10.0, 0.05),
    2: ("x_bar", 0.0, 10.0, 0.05),
    3: ("alpha", 0.02, 2.0, 0.02),
    4: ("r", 0.0, 3.0, 0.02),
}


def _figure_value(fig: int, value: float) -> float:
    if fig == 1:
        return poisson_parity_information(value)
    if fig == 2:
        dist = deformed_distribution(
            DeformationSpec(DeformationKind.POISSON, alpha_mag2=value), 256
        )
        return block_entropies(dist, PartitionScheme(3)).information
    if fig == 3:
        dist = deformed_distribution(
            DeformationSpec(DeformationKind.Q_COHERENT, alpha_mag2=value * value, lam=2.0)
        )
        return block_entropies(dist, PartitionScheme(2)).information
    dist = deformed_distribution(DeformationSpec(DeformationKind.SQUEEZED_VACUUM, r=value), 6000)
    return block_entropies(dist, PartitionScheme(3)).information


def _cmd_figures(args) -> int:
    name, start, stop, step = _FIGURE_DEFAULTS[args.fig]
    if args.param_min is not None:
        start = args.param_min
    if args.param_max is not None:
        stop = args.param_max
    if args.param_step is not None:
        step = args.param_step
    if step <= 0:
        raise DomainError("--param-step must be positive")
    lines = [f"{name},information"]
    for value in _grid(start, stop, step):
        lines.append(f"{_fmt(value)},{_fmt(_figure_value(args.fig, value))}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_oracle(args) -> int:
    verdicts = run_suite()
    _emit(verdicts_to_json_lines(verdicts), args.out)
    return 0 if suite_passed(verdicts) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_family_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=_FAMILIES, required=True)
    sub.add_argument("--state", metavar="JSON", help="gaussian state descriptor file")
    sub.add_argument("--route", choices=("hermite", "laguerre"), default="hermite",
                     help="representation for --family gaussian")
    sub.add_argument("--x", type=float)
    sub.add_argument("--y", type=float)
    sub.add_argument("--t", type=float, default=0.0)
    sub.add_argument("--tau", type=float)
    sub.add_argument("--s1", type=float)
    sub.add_argument("--s2", type=float)
    sub.add_argument("--r", type=float, default=0.0)
    sub.add_argument("--theta", type=float, default=0.0)
    sub.add_argument("--alpha", type=float, default=0.0)
    sub.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sub.add_argument("--f-values", help="comma-separated f(0),f(1),... (empty = all ones)")
    sub.add_argument("--f-convention", choices=("sqrt-factorial", "factorial"),
                     default="sqrt-factorial")
    sub.add_argument("--mean-q", type=float, default=0.0)
    sub.add_argument("--mean-p", type=float, default=0.0)


_SHARED_OPTIONS = {
    "--n-max": dict(type=int, default=None),
    "--partition": dict(type=int, default=2),
    "--branch": dict(type=int, default=0),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--out": dict(metavar="PATH"),
}


def _add_shared_options(sub: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        sub.add_argument(flag, **_SHARED_OPTIONS[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``photonstat`` parser: one per process, built on first use.

    Nothing in the tree depends on argv, and ``parse_args`` keeps no state
    between calls: each call fills a fresh Namespace, and argparse looks up
    stdout, stderr and the terminal width when it prints.  So every call of
    :func:`main` parses, prints and exits as with a parser of its own, while
    the six subparsers and their flags are built once (each flag makes a
    help formatter to check its metavar).
    """
    parser = argparse.ArgumentParser(
        prog="photonstat",
        description="Photon-number distributions, block-partition information, "
        "and uncertainty-violation diagnostics",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dist", help="emit a photon-number distribution")
    _add_family_options(p)
    _add_shared_options(p, "--n-max", "--format", "--out")
    p.set_defaults(func=_cmd_dist)

    p = subs.add_parser("entropy", help="block-partition entropy report")
    _add_family_options(p)
    _add_shared_options(p, "--n-max", "--partition", "--branch", "--format", "--out")
    p.set_defaults(func=_cmd_entropy)

    p = subs.add_parser("inequality", help="entropy-inequality margin report")
    _add_family_options(p)
    _add_shared_options(p, "--n-max", "--partition", "--branch", "--format", "--out")
    p.add_argument("--form", choices=("hermite", "laguerre", "block"), default="block")
    p.set_defaults(func=_cmd_inequality)

    p = subs.add_parser("violation", help="tau sweep over the uncertainty boundary")
    p.add_argument("--tau-min", type=float, default=-1.0)
    p.add_argument("--tau-max", type=float, default=5.0)
    p.add_argument("--tau-step", type=float, default=0.1)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    _add_shared_options(p, "--n-max", "--partition", "--branch", "--out")
    p.set_defaults(func=_cmd_violation)

    p = subs.add_parser("figures", help="two-column CSV information sweeps")
    p.add_argument("--fig", type=int, required=True, choices=tuple(_FIGURE_DEFAULTS))
    p.add_argument("--param-min", type=float)
    p.add_argument("--param-max", type=float)
    p.add_argument("--param-step", type=float)
    _add_shared_options(p, "--out")
    p.set_defaults(func=_cmd_figures)

    p = subs.add_parser("oracle", help="run the independent cross-check suite")
    _add_shared_options(p, "--out")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "n_max", None) is not None and args.n_max < 1:
            raise DomainError("--n-max must be at least 1")
        if getattr(args, "partition", 2) < 2:
            raise DomainError("--partition must be at least 2")
        return args.func(args)
    except PhotonStatError as exc:
        code = next(code for etype, code in _REASON_CODES if isinstance(exc, etype))
        sys.stderr.write(f"error: {code}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
