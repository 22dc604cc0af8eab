"""Command line interface.

Exit codes: 0 success, 1 a campaign found violations, 2 input error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .algebra import enumerate_monic_irreducibles
from .dynamics import parse_map
from .funcfield import INFINITE_VALUATION, Place, RatFunc, eta_bound, valuation
from .geometry import ProjPoint, log_distance
from .harness import (
    CampaignConfig,
    MapGenSpec,
    emit_report,
    run_bound_campaign,
    run_property_campaign,
)
from .orbits import find_periodic_points, iterate_orbit


def _add_p(parser, required=True):
    parser.add_argument("-p", type=int, required=required,
                        help="characteristic (prime <= 97)")


def _write_out(text: str, path: Optional[str]):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ffdyn",
        description="Exact dynamics of rational maps on P^1 over F_p(t).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("places", help="list monic irreducibles of one degree")
    _add_p(sp)
    sp.add_argument("-d", type=int, required=True, help="degree")

    sp = sub.add_parser("val", help="valuation of a rational function at a place")
    _add_p(sp)
    sp.add_argument("ratfunc", help="num/den in the polynomial grammar")
    sp.add_argument("place", help="monic irreducible polynomial or 'inf'")

    sp = sub.add_parser("dist", help="logarithmic distance between two points")
    _add_p(sp)
    sp.add_argument("point1", help="[x : y]")
    sp.add_argument("point2", help="[x : y]")
    sp.add_argument("place")

    for name, hlp in (("resultant", "resultant of a map's normalized model"),
                      ("badplaces", "finite places of bad reduction")):
        sp = sub.add_parser(name, help=hlp)
        _add_p(sp, required=False)
        sp.add_argument("map", help="JSON map, @file, or affine shorthand like x^2+t")

    sp = sub.add_parser("reduce", help="reduce a map modulo a finite place")
    _add_p(sp, required=False)
    sp.add_argument("map")
    sp.add_argument("place")

    hlp = ("iterate a point and print the orbit report (an escaping orbit up to "
           "its first point proved escaping)")
    sp = sub.add_parser("orbit", help=hlp, description=hlp)
    _add_p(sp, required=False)
    sp.add_argument("map")
    sp.add_argument("point")

    sp = sub.add_parser("periodic", help="periodic points in a height box")
    _add_p(sp, required=False)
    sp.add_argument("map")
    sp.add_argument("--height", type=int, required=True)

    sp = sub.add_parser("verify-bounds", help="period/orbit-size bound campaign")
    _add_p(sp)
    sp.add_argument("--maps", type=int, default=500, help="monic maps (split over degrees)")
    sp.add_argument("--degrees", default="2,3,4", help="comma-separated monic degrees")
    sp.add_argument("--conjugates", type=int, default=100)
    sp.add_argument("--rejection", type=int, default=50)
    sp.add_argument("--coeff-degree", type=int, default=3)
    sp.add_argument("--height", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("verify-props", help="structural property campaign")
    _add_p(sp)
    sp.add_argument("--maps", type=int, default=40)
    sp.add_argument("--coeff-degree", type=int, default=2)
    sp.add_argument("--height", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--triples", type=int, default=1000)
    sp.add_argument("--instances", type=int, default=1000)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("eta", help="orbit-length ceiling eta(p, D, |S|)")
    sp.add_argument("-p", type=int, required=True, help="characteristic (0 or prime)")
    sp.add_argument("-D", type=int, required=True)
    sp.add_argument("-s", type=int, required=True, help="|S|")

    return ap


def _cmd_places(args) -> int:
    for f in enumerate_monic_irreducibles(args.p, args.d):
        print(f)
    return 0


def _cmd_val(args) -> int:
    x = RatFunc.parse(args.p, args.ratfunc)
    v = valuation(x, Place.parse(args.p, args.place))
    print("+inf" if v is INFINITE_VALUATION else v)
    return 0


def _cmd_dist(args) -> int:
    P = ProjPoint.parse(args.p, args.point1)
    Q = ProjPoint.parse(args.p, args.point2)
    print(log_distance(P, Q, Place.parse(args.p, args.place)))
    return 0


def _cmd_resultant(args) -> int:
    print(parse_map(args.map, p=args.p).resultant())
    return 0


def _cmd_badplaces(args) -> int:
    bad = parse_map(args.map, p=args.p).bad_places()
    if not bad:
        print("(none)")
    else:
        for place in sorted(bad, key=Place.sort_key):
            print(place)
    return 0


def _cmd_reduce(args) -> int:
    phi = parse_map(args.map, p=args.p)
    print(phi.reduce_map(Place.parse(phi.p, args.place)))
    return 0


def _cmd_orbit(args) -> int:
    phi = parse_map(args.map, p=args.p)
    P = ProjPoint.parse(phi.p, args.point)
    rep = iterate_orbit(phi, P)
    print(f"status: {rep.status.value}")
    if rep.orbit_size is not None:
        print(f"tail: {rep.tail}  cycle: {rep.cycle}  orbit_size: {rep.orbit_size}")
    for i, q in enumerate(rep.points):
        print(f"  {i}: {q}")
    return 0


def _cmd_periodic(args) -> int:
    phi = parse_map(args.map, p=args.p)
    found = find_periodic_points(phi, args.height)
    if not found:
        print("(none)")
    for q, n in found:
        print(f"{q}  period {n}")
    return 0


def _cmd_verify_bounds(args) -> int:
    degrees = [int(x) for x in args.degrees.split(",") if x.strip()]
    if not degrees:
        raise ValueError("need at least one monic degree")
    if len(set(degrees)) != len(degrees):
        raise ValueError(f"repeated degree in --degrees {args.degrees}")

    def per_degree(family: str, total: int):
        # total split over the degrees as evenly as possible, earlier ones first
        base, extra = divmod(total, len(degrees))
        return [(MapGenSpec(family, args.p, d, args.coeff_degree, seed=args.seed),
                 base + (i < extra)) for i, d in enumerate(degrees)]

    generators = per_degree("MonicPoly", args.maps)
    generators += [g for g in per_degree("ConjugatedMonicPoly", args.conjugates) if g[1]]
    if args.rejection:
        generators.append((MapGenSpec("RejectionRandom", args.p, 2, 0,
                                      seed=args.seed), args.rejection))
    config = CampaignConfig(
        p=args.p,
        generators=tuple(generators),
        height_bound=args.height,
        seed=args.seed,
    )
    report = run_bound_campaign(config, args.workers)
    _write_out(emit_report(report, args.format), args.out)
    if args.out:
        print(f"maps: {report.maps_generated}  finite orbits: {report.finite_orbits}  "
              f"max period: {report.max_period}  max orbit: {report.max_orbit_size}  "
              f"violations: {len(report.violations)}")
    return report.exit_code


def _cmd_verify_props(args) -> int:
    config = CampaignConfig(
        p=args.p,
        generators=((MapGenSpec("MonicPoly", args.p, 2, args.coeff_degree,
                                seed=args.seed), args.maps),),
        height_bound=args.height,
        seed=args.seed,
        prop51_count=args.triples,
        prop52_count=args.instances,
    )
    report = run_property_campaign(config)
    _write_out(emit_report(report, args.format), args.out)
    if args.out:
        for name in sorted(report.checker_counts):
            c = report.checker_counts[name]
            print(f"{name}: {c['passed']}/{c['run']} passed")
    return report.exit_code


def _cmd_eta(args) -> int:
    print(eta_bound(args.p, args.D, args.s))
    return 0


_COMMANDS = {
    "places": _cmd_places,
    "val": _cmd_val,
    "dist": _cmd_dist,
    "resultant": _cmd_resultant,
    "badplaces": _cmd_badplaces,
    "reduce": _cmd_reduce,
    "orbit": _cmd_orbit,
    "periodic": _cmd_periodic,
    "verify-bounds": _cmd_verify_bounds,
    "verify-props": _cmd_verify_props,
    "eta": _cmd_eta,
}


def main(argv: Optional[list[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
