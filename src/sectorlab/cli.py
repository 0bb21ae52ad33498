"""Command line front end.

Subcommands: roots, apply, sector, verify, search, plot.  All angles are
radians.  Exit codes are a stable scripting contract: 0 success, 1 input
error, 2 solver nonconvergence, 3 hypothesis violation, 4 counterexample
found.  Machine output (JSON reports, CSV, SVG) goes to --output or stdout;
human-facing notes go to stderr so redirected output stays byte-clean.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (CAMPAIGNS, SEARCH_CAMPAIGN, PolyGenSpec,
                       double_sector_demo, search_counterexample,
                       verify_theorem)
from .errors import (HypothesisViolationError, InputError,
                     NonConvergenceError, NotInRightHalfPlaneError,
                     SectorLabError)
from .geometry import (disc_tangency_data, jensen_sector_disc,
                       min_enclosing_double_sector, min_enclosing_sector,
                       reference_angle)
from .operators import apply_sequence, parse_sequence_spec, predicted_sector
from .poly import RealPolynomial, from_document
from .roots import SolverConfig, find_roots
from .svgplot import render_scene

__all__ = ["main", "cli_entry", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for solver
    nonconvergence, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return f"{z.real:.12g}"
    sign = "+" if z.imag >= 0.0 else "-"
    return f"{z.real:.12g}{sign}{abs(z.imag):.12g}i"


def _fmt_angle(value) -> str:
    return "n/a" if value is None else f"{value:.12g}"


def _display_order(entries):
    return sorted(entries, key=lambda e: (e.location.real,
                                          abs(e.location.imag),
                                          -e.location.imag))


def _zeros_text(zs) -> str:
    parts = [f"{_fmt_complex(e.location)} (×{e.multiplicity})"
             for e in _display_order(zs.zeros)]
    return ", ".join(parts) + "\n"


def _zeros_json(zs) -> str:
    doc = {
        "degree": zs.source_degree,
        "zeros": [
            {"re": e.location.real, "im": e.location.imag,
             "multiplicity": e.multiplicity, "residual": e.residual}
            for e in _display_order(zs.zeros)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _zeros_csv(zs) -> str:
    lines = ["re,im,multiplicity,residual"]
    for e in _display_order(zs.zeros):
        lines.append(f"{e.location.real:.17g},{e.location.imag:.17g},"
                     f"{e.multiplicity},{e.residual:.17g}")
    return "\n".join(lines) + "\n"


def _emit(text: str, output):
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_polynomial(args) -> RealPolynomial:
    if args.coeffs is not None:
        fields = [f.strip() for f in args.coeffs.split(",")]
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise InputError(f"--coeffs expects comma-separated numbers: {exc}")
        return from_document({"coeffs": values})
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {args.input!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.input!r} is not valid JSON: "
                         f"line {exc.lineno} column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # a number past the digit limit, or not UTF-8
        raise InputError(f"{args.input!r} cannot be read: {exc}")
    return from_document(doc)


def _solver_config(args) -> SolverConfig:
    tol = getattr(args, "tol_residual", None)
    if tol is None:
        return SolverConfig()
    try:
        return SolverConfig(residual_accept=tol)
    except ValueError as exc:
        raise InputError(f"--tol-residual {tol!r}: {exc}")


def _conjugate_pairs(zs):
    """(a, b) for each distinct upper-half-plane zero of a real polynomial."""
    return [(e.location.real, e.location.imag)
            for e in zs.zeros if e.location.imag > 0.0]


def cmd_roots(args) -> int:
    p = _load_polynomial(args)
    zs = find_roots(p, _solver_config(args))
    if args.format == "text":
        _emit(_zeros_text(zs), args.output)
        worst = max(e.residual for e in zs.zeros)
        print(f"max normalized residual {worst:.3e}", file=sys.stderr)
    elif args.format == "json":
        _emit(_zeros_json(zs), args.output)
    else:
        _emit(_zeros_csv(zs), args.output)
    return 0


def cmd_apply(args) -> int:
    p = _load_polynomial(args)
    ms = parse_sequence_spec(args.op)
    q = apply_sequence(p, ms)
    cfg = _solver_config(args)

    def measure(poly):
        if poly.degree < 1:
            return None, None
        zs = find_roots(poly, cfg)
        try:
            return min_enclosing_sector(zs), zs
        except NotInRightHalfPlaneError:
            return None, zs

    theta_before, _ = measure(p)
    theta_after, zs_after = measure(q)
    predicted = (None if theta_before is None
                 else predicted_sector(ms, theta_before))

    coeffs_before = ",".join(f"{c:.12g}" for c in p.coeffs)
    coeffs_after = ",".join(f"{c:.12g}" for c in q.coeffs)
    if args.format == "text":
        lines = [
            f"operator {ms.spec_string()}",
            f"coeffs_before {coeffs_before}",
            f"coeffs_after {coeffs_after}",
            f"degree_drop {p.degree - q.degree}",
            f"theta_before {_fmt_angle(theta_before)}",
            f"theta_after {_fmt_angle(theta_after)}",
            f"predicted {_fmt_angle(predicted)}",
        ]
        if zs_after is not None:
            lines.append("roots_after " + _zeros_text(zs_after).rstrip("\n"))
        _emit("\n".join(lines) + "\n", args.output)
    else:
        doc = {
            "operator": ms.spec_string(),
            "coeffs_before": [float(c) for c in p.coeffs],
            "coeffs_after": [float(c) for c in q.coeffs],
            "degree_drop": p.degree - q.degree,
            "theta_before": theta_before,
            "theta_after": theta_after,
            "predicted": predicted,
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.output)
    return 0


def cmd_sector(args) -> int:
    p = _load_polynomial(args)
    zs = find_roots(p, _solver_config(args))
    if args.double:
        theta = min_enclosing_double_sector(zs)
    else:
        theta = min_enclosing_sector(zs)
    if args.format == "text":
        _emit(f"{theta:.12g}\n", args.output)
    else:
        doc = {"double": bool(args.double), "theta": theta}
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.output)
    return 0


def _emit_report(label: str, report, output) -> int:
    """Write a campaign report, summarize it on stderr; exit 4 on a
    counterexample."""
    _emit(report.to_json(), output)
    cex = "counterexample found" if report.found_counterexample() else \
        "no counterexample"
    print(f"{label}: {report.trials} trials, {report.skipped} skipped, "
          f"worst margin {report.worst_margin!r}, {cex} "
          f"({report.elapsed:.2f}s)", file=sys.stderr)
    return 4 if report.found_counterexample() else 0


def _generator(args, campaign) -> PolyGenSpec:
    """The flags' generator settings, defaulting to the campaign's."""
    theta = args.theta if args.theta is not None else campaign.theta
    deg_hi = (args.degree_max if args.degree_max is not None
              else campaign.deg_hi)
    return PolyGenSpec(deg_lo=1, deg_hi=deg_hi, theta=theta, seed=args.seed)


def cmd_double_sector(args) -> int:
    ms = parse_sequence_spec(args.op)
    before, after = double_sector_demo(ms, _solver_config(args))
    reduced = after < before - 1e-9
    verdict = ("reduction observed (unexpected)" if reduced
               else "no reduction (as proven)")
    doc = {"after": after, "before": before, "operator": ms.spec_string(),
           "theorem_id": "double-sector", "verdict": verdict}
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.output)
    print(f"double-sector: before {before:.12g} after {after:.12g} "
          f"-> {verdict}", file=sys.stderr)
    return 4 if reduced else 0


def cmd_verify(args) -> int:
    campaign = CAMPAIGNS[args.theorem]
    gen = _generator(args, campaign)
    # each flag's dest is its param's name; a param without a flag is unset
    params = {name: parse_sequence_spec(v) if name == "sequence" else v
              for name in campaign.params
              if (v := getattr(args, name, None)) is not None}
    report = verify_theorem(args.theorem, gen, params, trials=args.trials,
                            config=_solver_config(args),
                            tolerance=args.tol_angle)
    return _emit_report(args.theorem, report, args.output)


def cmd_search(args) -> int:
    ms = parse_sequence_spec(args.op)
    gen = _generator(args, SEARCH_CAMPAIGN)
    report = search_counterexample(ms, gen, trials=args.trials,
                                   config=_solver_config(args))
    return _emit_report(f"search {ms.spec_string()}", report, args.output)


def cmd_plot(args) -> int:
    p = _load_polynomial(args)
    cfg = _solver_config(args)
    if args.show_discs and args.alpha is None:
        raise InputError("--show-discs needs --alpha to fix the disc angle")
    if args.alpha is not None:
        if not args.show_discs:
            raise InputError("--alpha sets the disc angle, so it needs "
                             "--show-discs")
        # checked here: a disc, which checks it too, is drawn only for a pair
        reference_angle(args.alpha)
    zs_before = find_roots(p, cfg)
    annotations = [f"degree {p.degree}"]

    sector_angle = None
    try:
        sector_angle = min_enclosing_sector(zs_before)
        annotations.append(f"theta {sector_angle:.6g}")
    except NotInRightHalfPlaneError as exc:
        annotations.append(
            f"NotInRightHalfPlane: zero at {_fmt_complex(exc.offender)}")

    after_locs = []
    predicted = None
    if args.op:
        ms = parse_sequence_spec(args.op)
        annotations.append(f"operator {ms.spec_string()}")
        q = apply_sequence(p, ms)
        if q.degree >= 1:
            after_locs = find_roots(q, cfg).locations()
        if sector_angle is not None:
            predicted = predicted_sector(ms, sector_angle)

    discs = []
    if args.show_discs:
        gamma = None
        for a, b in _conjugate_pairs(zs_before):
            if a <= 0.0:
                annotations.append(
                    f"no disc for {_fmt_complex(complex(a, b))} (Re <= 0)")
                continue
            d = jensen_sector_disc(a, b, args.alpha)
            discs.append(d)
            if not d.empty:
                t = disc_tangency_data(d, a, b, args.alpha)
                gamma = t.ray_angle if gamma is None else max(gamma,
                                                              t.ray_angle)
        if gamma is not None:
            predicted = gamma if predicted is None else max(predicted, gamma)
            annotations.append(f"gamma {gamma:.6g}")

    if predicted is not None and f"gamma {predicted:.6g}" not in annotations:
        annotations.append(f"predicted {predicted:.6g}")

    svg = render_scene(before=zs_before.locations(), after=after_locs,
                       discs=discs, sector_angle=sector_angle,
                       predicted_angle=predicted, annotations=annotations)
    _emit(svg, args.output)
    return 0


def _add_common(sub, formats: tuple, with_input=True):
    """The polynomial input (unless with_input is false), --format with the
    subcommand's formats, the first the default, -o and --tol-residual."""
    if with_input:
        grp = sub.add_mutually_exclusive_group(required=True)
        grp.add_argument("--coeffs", help="comma-separated ascending "
                         "coefficients, e.g. 2,-2,1")
        grp.add_argument("--input", help="path to a polynomial JSON document")
    sub.add_argument("--format", choices=formats, default=formats[0],
                     help="output format")
    sub.add_argument("-o", "--output", default=None,
                     help="write output to this path instead of stdout")
    sub.add_argument("--tol-residual", type=float, default=None,
                     help="largest backward error |p(z)| / sum |c_k| |z|^k "
                          "a solved zero may carry (default 1e-9)")


# the verify flag of each campaign param that has one; beta and mult_theta
# are set from Python only
_PARAM_FLAGS = {
    "alpha": ("--alpha", {"type": float,
                          "help": "pin the operator angle parameter"}),
    "lam": ("--lam", {"type": float, "help": "pin the blend phase parameter"}),
    "N": ("--N", {"type": int, "help": "pin the cosine-step denominator"}),
    "quadratic": ("--quadratic", {"action": "store_true",
                                  "help": "single-quadratic boundary "
                                          "sharpness mode"}),
    "sequence": ("--op", {"help": "sequence spec (default gauss at "
                                  "--alpha, or at 0.5)"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sectorlab",
                     description="Zero-sector reduction toolkit: polynomial "
                                 "roots, multiplier operators, sector "
                                 "geometry, and verification campaigns.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    sp = subs.add_parser("roots", help="find zeros with multiplicities")
    _add_common(sp, ("text", "json", "csv"))
    sp.set_defaults(handler=cmd_roots)

    sp = subs.add_parser("apply", help="apply a multiplier sequence")
    _add_common(sp, ("text", "json"))
    sp.add_argument("--op", required=True,
                    help="sequence spec, e.g. gauss:alpha=0.5")
    sp.set_defaults(handler=cmd_apply)

    sp = subs.add_parser("sector", help="measure the smallest enclosing sector")
    _add_common(sp, ("text", "json"))
    sp.add_argument("--double", action="store_true",
                    help="fold through the origin (double sector)")
    sp.set_defaults(handler=cmd_sector)

    sp = subs.add_parser("verify", help="run a theorem campaign")
    theorems = sp.add_subparsers(dest="theorem", required=True,
                                 parser_class=_Parser)
    for theorem, campaign in CAMPAIGNS.items():
        tp = theorems.add_parser(theorem, help="seeded randomized campaign")
        _add_common(tp, ("json",), with_input=False)
        tp.add_argument("--tol-angle", type=float, default=None,
                        help="angle-margin tolerance override")
        tp.add_argument("--trials", type=int, default=200)
        tp.add_argument("--seed", type=int, default=0)
        tp.add_argument("--theta", type=float, default=None,
                        help="sector half-angle for generated zeros")
        tp.add_argument("--degree-max", type=int, default=None)
        tp.set_defaults(handler=cmd_verify)
        for name in campaign.params:
            if name in _PARAM_FLAGS:
                flag, kwargs = _PARAM_FLAGS[name]
                tp.add_argument(flag, dest=name, default=None, **kwargs)
    tp = theorems.add_parser("double-sector",
                             help="fold angle of 4 + z^4 under --op")
    _add_common(tp, ("json",), with_input=False)
    tp.add_argument("--op", default="explicit:1,1,1,1,1",
                    help="sequence spec")
    tp.set_defaults(handler=cmd_double_sector)

    sp = subs.add_parser("search", help="hunt for sector-growth counterexamples")
    _add_common(sp, ("json",), with_input=False)
    sp.add_argument("--op", required=True,
                    help="exppower or explicit sequence spec")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--degree-max", type=int, default=None)
    sp.set_defaults(handler=cmd_search)

    sp = subs.add_parser("plot", help="render zeros, sectors and discs as SVG")
    _add_common(sp, ("svg",))
    sp.add_argument("--op", default=None,
                    help="overlay zeros after this sequence")
    sp.add_argument("--alpha", type=float, default=None,
                    help="disc angle for --show-discs")
    sp.add_argument("--show-discs", action="store_true",
                    help="draw the sector-disc for each conjugate pair")
    sp.set_defaults(handler=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except SectorLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def cli_entry():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    cli_entry()
