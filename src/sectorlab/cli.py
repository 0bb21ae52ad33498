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
import os
import sys

from .analysis import (CAMPAIGNS, SEARCH_CAMPAIGN, PolyGenSpec,
                       double_sector_demo, search_counterexample,
                       verify_theorem, THEOREM_IDS)
from .errors import (HypothesisViolationError, InputError,
                     NonConvergenceError, NotInRightHalfPlaneError,
                     SectorLabError)
from .geometry import (disc_tangency_data, jensen_sector_disc,
                       min_enclosing_double_sector, min_enclosing_sector)
from .operators import apply_sequence, parse_sequence_spec, predicted_sector
from .poly import RealPolynomial, from_document
from .roots import SolverConfig, find_roots
from .svgplot import render_scene

__all__ = ["main", "cli_entry", "build_parser"]

_ENV_SEED = "SECTORLAB_SEED"


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
        try:
            return RealPolynomial(values)
        except ValueError as exc:
            raise InputError(str(exc))
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {args.input!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.input!r} is not valid JSON: "
                         f"line {exc.lineno} column {exc.colno}: {exc.msg}")
    p = from_document(doc)
    if not isinstance(p, RealPolynomial):
        raise InputError("input document must describe a real polynomial")
    return p


def _solver_config(args) -> SolverConfig:
    tol = getattr(args, "tol_residual", None)
    if tol is None:
        return SolverConfig()
    try:
        return SolverConfig(residual_accept=tol)
    except ValueError as exc:
        raise InputError(f"--tol-residual {tol!r}: {exc}")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(_ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{_ENV_SEED}={raw!r} is not an integer")


def _require_format(args, allowed: tuple, default: str) -> str:
    fmt = args.format or default
    if fmt not in allowed:
        raise InputError(f"format {fmt!r} not supported here; "
                         f"choose from {', '.join(allowed)}")
    return fmt


def _conjugate_pairs(zs):
    """(a, b) for each distinct upper-half-plane zero of a real polynomial."""
    return [(e.location.real, e.location.imag)
            for e in zs.zeros if e.location.imag > 0.0]


def cmd_roots(args) -> int:
    p = _load_polynomial(args)
    fmt = _require_format(args, ("text", "json", "csv"), "text")
    zs = find_roots(p, _solver_config(args))
    if fmt == "text":
        _emit(_zeros_text(zs), args.output)
        worst = max(e.residual for e in zs.zeros)
        print(f"max normalized residual {worst:.3e}", file=sys.stderr)
    elif fmt == "json":
        _emit(_zeros_json(zs), args.output)
    else:
        _emit(_zeros_csv(zs), args.output)
    return 0


def cmd_apply(args) -> int:
    p = _load_polynomial(args)
    fmt = _require_format(args, ("text", "json"), "text")
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
    if fmt == "text":
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
    fmt = _require_format(args, ("text", "json"), "text")
    zs = find_roots(p, _solver_config(args))
    if args.double:
        theta = min_enclosing_double_sector(zs)
    else:
        theta = min_enclosing_sector(zs)
    if fmt == "text":
        _emit(f"{theta:.12g}\n", args.output)
    else:
        doc = {"double": bool(args.double), "theta": theta}
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.output)
    return 0


_THEOREM_ALIASES = {
    "periodstrip": "period-strip",
    "cos-ak": "cosak",
}


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


def _generator(args, campaign, seed: int) -> PolyGenSpec:
    """The flags' generator settings, defaulting to the campaign's."""
    theta = args.theta if args.theta is not None else campaign.theta
    return PolyGenSpec(deg_lo=1, deg_hi=args.degree_max or campaign.deg_hi,
                       theta=theta, seed=seed)


# verify flags that only the seeded campaigns read
_CAMPAIGN_FLAGS = ("seed", "trials", "theta", "degree_max", "alpha", "lam",
                   "N", "quadratic", "tol_angle")


def cmd_verify(args) -> int:
    _require_format(args, ("json",), "json")
    theorem = _THEOREM_ALIASES.get(args.theorem, args.theorem)

    if theorem == "double-sector":
        given = [f"--{name.replace('_', '-')}" for name in _CAMPAIGN_FLAGS
                 if getattr(args, name) is not None
                 and getattr(args, name) is not False]
        if given:
            raise InputError(f"double-sector reads no flag {', '.join(given)}"
                             f"; it reads --op and --tol-residual")
        spec = args.op or "explicit:1,1,1,1,1"
        ms = parse_sequence_spec(spec)
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

    if theorem not in CAMPAIGNS:
        raise InputError(f"unknown theorem id {args.theorem!r}; expected one "
                         f"of {', '.join(THEOREM_IDS + ('double-sector',))}")
    gen = _generator(args, CAMPAIGNS[theorem], _resolve_seed(args))

    params: dict = {}
    if args.alpha is not None:
        params["alpha"] = args.alpha
    if args.lam is not None:
        params["lam"] = args.lam
    if args.N is not None:
        params["N"] = args.N
    if args.quadratic:
        params["quadratic"] = True
    if args.op:
        params["sequence"] = parse_sequence_spec(args.op)
    if args.tol_angle is not None:
        params["tolerance_override"] = args.tol_angle

    trials = 200 if args.trials is None else args.trials
    report = verify_theorem(theorem, gen, params, trials=trials,
                            config=_solver_config(args))
    return _emit_report(theorem, report, args.output)


def cmd_search(args) -> int:
    _require_format(args, ("json",), "json")
    seed = _resolve_seed(args)
    ms = parse_sequence_spec(args.op)
    gen = _generator(args, SEARCH_CAMPAIGN, seed)
    report = search_counterexample(ms, gen, trials=args.trials,
                                   config=_solver_config(args))
    return _emit_report(f"search {ms.spec_string()}", report, args.output)


def cmd_plot(args) -> int:
    p = _load_polynomial(args)
    _require_format(args, ("svg",), "svg")
    cfg = _solver_config(args)
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
        if args.alpha is None:
            raise InputError("--show-discs needs --alpha to fix the disc angle")
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


def _add_common(sub, with_input=True):
    if with_input:
        grp = sub.add_mutually_exclusive_group(required=True)
        grp.add_argument("--coeffs", help="comma-separated ascending "
                         "coefficients, e.g. 2,-2,1")
        grp.add_argument("--input", help="path to a polynomial JSON document")
    sub.add_argument("--format", choices=("text", "json", "csv", "svg"),
                     default=None, help="output format")
    sub.add_argument("-o", "--output", default=None,
                     help="write output to this path instead of stdout")
    sub.add_argument("--tol-residual", type=float, default=None,
                     help="solver residual acceptance override")
    sub.add_argument("--tol-angle", type=float, default=None,
                     help="angle-margin tolerance override for campaigns")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sectorlab",
                     description="Zero-sector reduction toolkit: polynomial "
                                 "roots, multiplier operators, sector "
                                 "geometry, and verification campaigns.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    sp = subs.add_parser("roots", help="find zeros with multiplicities")
    _add_common(sp)

    sp = subs.add_parser("apply", help="apply a multiplier sequence")
    _add_common(sp)
    sp.add_argument("--op", required=True,
                    help="sequence spec, e.g. gauss:alpha=0.5")

    sp = subs.add_parser("sector", help="measure the smallest enclosing sector")
    _add_common(sp)
    sp.add_argument("--double", action="store_true",
                    help="fold through the origin (double sector)")

    sp = subs.add_parser("verify", help="run a randomized theorem campaign")
    sp.add_argument("theorem", help="one of %s, double-sector"
                                    % ", ".join(THEOREM_IDS))
    _add_common(sp, with_input=False)
    sp.add_argument("--trials", type=int, default=None,
                    help="campaign trials (default 200)")
    sp.add_argument("--seed", type=int, default=None,
                    help=f"campaign seed (default ${_ENV_SEED} or 0)")
    sp.add_argument("--theta", type=float, default=None,
                    help="sector half-angle for generated zeros")
    sp.add_argument("--alpha", type=float, default=None,
                    help="pin the operator angle parameter")
    sp.add_argument("--lam", type=float, default=None,
                    help="pin the blend phase parameter")
    sp.add_argument("--N", type=int, default=None,
                    help="pin the cosine-step denominator")
    sp.add_argument("--degree-max", type=int, default=None)
    sp.add_argument("--quadratic", action="store_true",
                    help="jsd only: single-quadratic boundary sharpness mode")
    sp.add_argument("--op", default=None,
                    help="sequence spec for roms / double-sector")

    sp = subs.add_parser("search", help="hunt for sector-growth counterexamples")
    _add_common(sp, with_input=False)
    sp.add_argument("--op", required=True,
                    help="exppower or explicit sequence spec")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--degree-max", type=int, default=None)

    sp = subs.add_parser("plot", help="render zeros, sectors and discs as SVG")
    _add_common(sp)
    sp.add_argument("--op", default=None,
                    help="overlay zeros after this sequence")
    sp.add_argument("--alpha", type=float, default=None,
                    help="disc angle for --show-discs")
    sp.add_argument("--show-discs", action="store_true",
                    help="draw the sector-disc for each conjugate pair")

    return parser


_DISPATCH = {
    "roots": cmd_roots,
    "apply": cmd_apply,
    "sector": cmd_sector,
    "verify": cmd_verify,
    "search": cmd_search,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
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
