"""Command-line front end.

Subcommands: classify, bounds, construct {gmems|glems|gmemms|sqth},
analyze, sweep, validate. Numbers print with 12 significant digits; CSV
uses comma separators, a header row and LF line endings. Exit codes:
0 success, 1 domain/region or I/O failure (validate also exits 1 on
violations), 2 configuration or usage errors, 3 malformed input,
4 unphysical state.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    _as_float,
    _physical,
    _purities,
    _standard_form,
    from_json,
    from_standard_form,
    resolve_tolerance,
    to_json,
)
from .errors import (
    ConfigurationError,
    GceError,
    MalformedInputError,
    UnphysicalStateError,
)
from .entangle import RegionLabel, coexistence_threshold, separable_threshold
from .estimator import entanglement_report, estimate, estimate_arrays
from .extremal import SqueezedThermalParams, glems, gmemms, gmems, squeezed_thermal
from .oracle import SampleConfig, _crosscheck_batch, _validate_batch, sample_standard_forms
from .param import delta_bounds, purity_masks

__all__ = [
    "SweepSpec",
    "run_classify",
    "run_bounds",
    "run_sweep",
    "run_analyze",
    "main",
]

_FMT = "%.12g"
_ROW_FMT = ",".join([_FMT] * 4)


def _fmt(value: float) -> str:
    return _FMT % float(value)


def _log_scale(base: str) -> float:
    return 1.0 / math.log(2.0) if base == "2" else 1.0


def _render(pairs, as_json: bool) -> str:
    if as_json:
        return json.dumps(dict(pairs), sort_keys=True, indent=2)
    return "\n".join(f"{key} = {value if isinstance(value, str) else _fmt(value)}"
                     for key, value in pairs)


@dataclass(frozen=True)
class SweepSpec:
    """Rectangular sweep grid over symmetric marginal purity and global purity.

    Rows run row-major: outer loop mu_i, inner loop mu. Grid points that
    violate the purity constraints are kept with region "unphysical" and nan
    bounds. output None means standard output.
    """

    mu_i_start: float
    mu_i_stop: float
    mu_i_step: float
    mu_start: float
    mu_stop: float
    mu_step: float
    output: str | None = None

    def __post_init__(self) -> None:
        for name in ("mu_i_start", "mu_i_stop", "mu_i_step",
                     "mu_start", "mu_stop", "mu_step"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        if self.mu_i_step <= 0.0 or self.mu_step <= 0.0:
            raise MalformedInputError("sweep steps must be positive")
        if self.mu_i_stop < self.mu_i_start or self.mu_stop < self.mu_start:
            raise MalformedInputError("sweep stop must not precede start")


def _grid(start: float, stop: float, step: float) -> list[float]:
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def run_classify(mu1: float, mu2: float, mu: float,
                 log_base: str = "e", as_json: bool = False) -> str:
    """Region verdict and purity-only bounds for one triple, rendered as text."""
    scale = _log_scale(log_base)
    result = estimate(mu1, mu2, mu)
    pairs = [
        ("mu1", float(mu1)),
        ("mu2", float(mu2)),
        ("mu", float(mu)),
        ("region", result.region.value),
        ("en_min", result.en_min * scale),
        ("en_max", result.en_max * scale),
        ("en_avg", result.en_avg * scale),
        ("rel_err", result.rel_err),
    ]
    return _render(pairs, as_json)


def run_bounds(mu1: float, mu2: float, mu: float, as_json: bool = False) -> str:
    """Seralian range and region thresholds for one purity triple."""
    delta_min, delta_max = delta_bounds(mu1, mu2, mu)
    result = estimate(mu1, mu2, mu)
    m1, m2 = float(mu1), float(mu2)
    pairs = [
        ("mu1", m1),
        ("mu2", m2),
        ("mu", float(mu)),
        ("delta_min", delta_min),
        ("delta_max", delta_max),
        ("separable_threshold", separable_threshold(m1, m2)),
        ("coexistence_threshold", coexistence_threshold(m1, m2)),
        ("region", result.region.value),
    ]
    return _render(pairs, as_json)


def run_sweep(spec: SweepSpec, log_base: str = "e") -> str:
    """CSV text for the sweep grid; see SweepSpec for the layout.

    One `estimate_arrays` call covers every grid point inside the strip.
    """
    scale = _log_scale(log_base)
    tol = resolve_tolerance(None)
    mu_i = _grid(spec.mu_i_start, spec.mu_i_stop, spec.mu_i_step)
    mu = _grid(spec.mu_start, spec.mu_stop, spec.mu_step)
    m1, m = (a.ravel() for a in np.meshgrid(mu_i, mu, indexing="ij"))
    inside = purity_masks(m1, m1, m, tol)[1]
    region, lo, hi, avg, rel = estimate_arrays(m1[inside], m1[inside], m[inside], tol)
    labels = [label.value for label in RegionLabel]
    values = zip(region.tolist(), (lo * scale).tolist(), (hi * scale).tolist(),
                 (avg * scale).tolist(), rel.tolist())
    mu_text = [_fmt(x) for x in mu]
    lines = ["mu_i,mu,region,en_min,en_max,en_avg,rel_err"]
    flags = iter(inside.tolist())
    for x in mu_i:
        x_text = _fmt(x)
        for y_text in mu_text:
            if next(flags):
                row = next(values)
                lines.append(f"{x_text},{y_text},{labels[row[0]]}," + _ROW_FMT % row[1:])
            else:
                lines.append(f"{x_text},{y_text},unphysical,nan,nan,nan,nan")
    return "\n".join(lines) + "\n"


def run_analyze(path: str, log_base: str = "e", as_json: bool = False) -> str:
    """Full report for a covariance matrix stored as JSON at `path`.

    Prints purities, seralian, standard form, the exact log-negativity and
    the purity-only bounds, plus whether the exact value is contained in
    [en_min - tol, en_max + tol].
    """
    scale = _log_scale(log_base)
    tol = resolve_tolerance(None)
    with open(path, "r", encoding="utf-8") as handle:
        m = _physical(from_json(handle.read()), tol).entries
    point = _purities(m)
    sf = _standard_form(m)
    report = entanglement_report(point)
    en = report.log_negativity
    contained = report.en_min - tol <= en <= report.en_max + tol
    pairs = [
        ("mu1", point.mu1),
        ("mu2", point.mu2),
        ("mu", point.mu),
        ("delta", point.delta),
        ("a", sf.a),
        ("b", sf.b),
        ("c_plus", sf.c_plus),
        ("c_minus", sf.c_minus),
        ("n_tilde_minus", report.n_tilde_minus),
        ("log_negativity", en * scale),
        ("region", report.region.value),
        ("en_min", report.en_min * scale),
        ("en_max", report.en_max * scale),
        ("en_avg", report.en_avg * scale),
        ("rel_err", report.rel_err),
        ("containment", "ok" if contained else "violated"),
    ]
    return _render(pairs, as_json)


def _cmd_construct(args: argparse.Namespace) -> str:
    if args.family == "gmems":
        sf = gmems(args.mu1, args.mu2, args.mu)
    elif args.family == "glems":
        sf = glems(args.mu1, args.mu2, args.mu)
    elif args.family == "gmemms":
        sf = gmemms(args.mu1, args.mu2)
    else:
        sf = squeezed_thermal(
            SqueezedThermalParams(r=args.r, n_minus=args.n_minus, n_plus=args.n_plus)
        )
    return to_json(from_standard_form(sf))


def _cmd_validate(args: argparse.Namespace) -> tuple[str, int]:
    cfg = SampleConfig(seed=args.seed, count=args.count, a_max=args.a_max)
    # Every selected check reads the same states: sample them once.
    batch = sample_standard_forms(cfg)
    reports = {}
    if args.check in ("bounds", "all"):
        reports["bounds"] = _validate_batch(cfg, batch)
    if args.check in ("closed-forms", "all"):
        reports["closed_forms"] = _crosscheck_batch(cfg, batch)
    total = sum(r["total_violations"] for r in reports.values())
    return json.dumps(reports, sort_keys=True, indent=2), 0 if total == 0 else 1


def _write_or_print(text: str, output: str | None) -> None:
    if output is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gce",
        description="Entanglement classification and bounds for two-mode "
                    "Gaussian states from purities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_purities(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mu1", type=float, required=True, help="marginal purity of mode 1")
        p.add_argument("--mu2", type=float, required=True, help="marginal purity of mode 2")
        p.add_argument("--mu", type=float, required=True, help="global purity")

    def add_log_base(p: argparse.ArgumentParser) -> None:
        p.add_argument("--log-base", choices=("e", "2"), default="e",
                       help="logarithm base for printed negativities")

    p_classify = sub.add_parser("classify", help="region verdict and bounds for purities")
    add_purities(p_classify)
    add_log_base(p_classify)
    p_classify.add_argument("--json", action="store_true", help="emit JSON")

    p_bounds = sub.add_parser("bounds", help="seralian range and region thresholds")
    add_purities(p_bounds)
    p_bounds.add_argument("--json", action="store_true", help="emit JSON")

    p_construct = sub.add_parser("construct", help="emit an extremal state as JSON")
    fam = p_construct.add_subparsers(dest="family", required=True)
    for name in ("gmems", "glems"):
        p_fam = fam.add_parser(name, help=f"{name} at given purities")
        add_purities(p_fam)
        p_fam.add_argument("--output", help="write JSON here instead of stdout")
    p_gmemms = fam.add_parser("gmemms", help="maximal entanglement for fixed marginals")
    p_gmemms.add_argument("--mu1", type=float, required=True)
    p_gmemms.add_argument("--mu2", type=float, required=True)
    p_gmemms.add_argument("--output", help="write JSON here instead of stdout")
    p_sqth = fam.add_parser("sqth", help="two-mode squeezed thermal state")
    p_sqth.add_argument("--r", type=float, required=True, help="two-mode squeezing")
    p_sqth.add_argument("--n-minus", type=float, required=True,
                        help="smaller thermal symplectic eigenvalue")
    p_sqth.add_argument("--n-plus", type=float, required=True,
                        help="larger thermal symplectic eigenvalue")
    p_sqth.add_argument("--output", help="write JSON here instead of stdout")

    p_analyze = sub.add_parser("analyze", help="report on a covariance JSON file")
    p_analyze.add_argument("path", help="path to a covariance matrix JSON file")
    add_log_base(p_analyze)
    p_analyze.add_argument("--json", action="store_true", help="emit JSON")

    p_sweep = sub.add_parser("sweep", help="CSV grid over symmetric purities")
    p_sweep.add_argument("--mu-i", nargs=3, type=float, required=True,
                         metavar=("START", "STOP", "STEP"),
                         help="symmetric marginal purity range")
    p_sweep.add_argument("--mu", nargs=3, type=float, required=True,
                         metavar=("START", "STOP", "STEP"),
                         help="global purity range")
    p_sweep.add_argument("--output", help="CSV path (default stdout)")
    add_log_base(p_sweep)

    p_validate = sub.add_parser("validate", help="run the Monte Carlo oracle")
    p_validate.add_argument("--seed", type=int, default=12345)
    p_validate.add_argument("--count", type=int, default=100_000)
    p_validate.add_argument("--a-max", type=float, default=5.0)
    p_validate.add_argument("--check", choices=("bounds", "closed-forms", "all"),
                            default="all")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            print(run_classify(args.mu1, args.mu2, args.mu, args.log_base, args.json))
        elif args.command == "bounds":
            print(run_bounds(args.mu1, args.mu2, args.mu, args.json))
        elif args.command == "construct":
            _write_or_print(_cmd_construct(args), args.output)
        elif args.command == "analyze":
            print(run_analyze(args.path, args.log_base, args.json))
        elif args.command == "sweep":
            spec = SweepSpec(
                mu_i_start=args.mu_i[0], mu_i_stop=args.mu_i[1], mu_i_step=args.mu_i[2],
                mu_start=args.mu[0], mu_stop=args.mu[1], mu_step=args.mu[2],
                output=args.output,
            )
            _write_or_print(run_sweep(spec, args.log_base), spec.output)
        elif args.command == "validate":
            text, code = _cmd_validate(args)
            print(text)
            return code
        return 0
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnphysicalStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
