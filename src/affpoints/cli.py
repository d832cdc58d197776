"""Command line front end.

Every subcommand prints one JSON document on stdout.  Exit codes: 0 for
success (and passing checks), 1 for a failing check, 2 for usage errors.
All randomness flows through --seed; identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import noninjective, regions, serialize
from .bodies import parse_spec
from .duality import (
    dual_residual,
    invariance_check,
    polar_preimage,
    product_apply,
    product_iterates,
    random_polygons,
)
from .ellipses import john_ellipse, loewner_ellipse, verify_john_conditions
from .errors import BadParams, CertificationFailure, GeometryError, NoRoot
from .points import POINT_IDS, PointFunction, eval_point
from .polygons import k_sub_z, polar_about

# region map -> function name in ``regions``, looked up per call so that
# wrappers installed on the module (as the benchmark's tracer does) see it
REGION_MAPS = {"floating": "floating_body",
               "illumination": "illumination_body",
               "santalo": "santalo_region",
               "john": "john_region",
               "symcore": "symcore_region"}
# upper bound of region --rays: far past any useful resolution, and small
# enough that the ray arrays are a few MB
MAX_RAYS = 65536
# upper bounds of iterate-product --k and of the --trials options: ten times
# the longest runs in use, so that a mistyped count exits at once rather than
# run for hours (two point solves per iterate; a John dual-check trial takes
# some 5 ms, and dual-check builds its trial bodies up front)
MAX_ITERATES = 1000
MAX_TRIALS = 10000


def _point(spec: str, eps: float = 0.1, delta: float = 0.05) -> PointFunction:
    """Point function for an id; ``capfamily:EPS,DELTA`` sets the cap widths."""
    name, _, widths = spec.partition(":")
    if name != "capfamily":
        return PointFunction(spec)
    if widths:
        try:
            eps, delta = (float(s) for s in widths.split(","))
        except ValueError as exc:
            raise BadParams(f"expected capfamily:EPS,DELTA, got {spec!r}") from exc
    return PointFunction("capfamily", (eps, delta))


def _int_range(lo: int, hi: int | None = None):
    def parse(text: str) -> int:
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {n}")
        if hi is not None and n > hi:
            raise argparse.ArgumentTypeError(f"must be at most {hi}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def _tolerance(text: str) -> float:
    # NaN and inf would print as bare NaN and Infinity, which are not JSON;
    # a tolerance <= 0 no check can meet
    t = float(text)
    if not 0.0 < t < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return t


_tolerance.__name__ = "float"  # argparse names the type in its error message


def _parse_xy(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    return np.array([float(parts[0]), float(parts[1])])


def _emit(doc, svg_path=None, shapes=()) -> None:
    try:
        text = serialize.dumps(doc)
    except ValueError as exc:
        raise GeometryError(f"result is not finite: {exc}") from exc
    if svg_path:
        _write_svg(svg_path, shapes)
    sys.stdout.write(text + "\n")


def _write_svg(path: str, shapes) -> None:
    """Static picture of the given polygons; no styling options."""
    allv = np.vstack([P.vertices for P in shapes])
    lo = allv.min(axis=0)
    hi = allv.max(axis=0)
    span = float(max(hi - lo)) or 1.0
    pad = 0.05 * span
    lo -= pad
    scale = 480.0 / (span + 2 * pad)
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="480" height="480" '
        'viewBox="0 0 480 480">'
    ]
    for i, P in enumerate(shapes):
        pts = " ".join(
            f"{(x - lo[0]) * scale:.2f},{480 - (y - lo[1]) * scale:.2f}"
            for x, y in P.vertices
        )
        lines.append(
            f'<polygon points="{pts}" fill="none" '
            f'stroke="{colors[i % len(colors)]}" stroke-width="1.5"/>'
        )
    lines.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _add_body(sub, required=True):
    sub.add_argument("--body", required=required,
                     help="body spec: square, cross, simplex, ngon:M, "
                          "kab:A,B, beta:ETA, random:K,SEED, file:PATH")


def _add_point_id(sub, flag="--id"):
    sub.add_argument(flag, required=True, choices=POINT_IDS)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="affpoints")
    sp = ap.add_subparsers(dest="cmd", required=True)

    p = sp.add_parser("point", help="evaluate an affine invariant point")
    _add_body(p)
    _add_point_id(p)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.05)

    p = sp.add_parser("polar", help="polar body about a point")
    _add_body(p)
    p.add_argument("--z", type=_parse_xy, default=None,
                   help="base point (default: centroid)")
    p.add_argument("--translate", action="store_true",
                   help="return the polar shifted back to the base point")
    p.add_argument("--svg")

    p = sp.add_parser("shift", help="projective shift of the body by z")
    _add_body(p)
    p.add_argument("--z", type=_parse_xy, required=True)
    p.add_argument("--svg")

    p = sp.add_parser("ellipse", help="John or Loewner ellipse")
    p.add_argument("which", choices=["john", "loewner"])
    _add_body(p)
    p.add_argument("--certify", action="store_true")

    p = sp.add_parser("region", help="affine invariant set mapping")
    p.add_argument("which", choices=list(REGION_MAPS))
    _add_body(p)
    p.add_argument("--param", type=float, required=True,
                   help="delta for floating/illumination, c for the rest")
    p.add_argument("--rays", type=_int_range(3, MAX_RAYS),
                   default=regions.DEFAULT_RAYS,
                   help=f"directions or rays, 3 to {MAX_RAYS}; floating and "
                        "illumination need at least 64")
    p.add_argument("--svg")

    p = sp.add_parser("dual-check", help="residual of q(K^{p(K)}) = p(K)")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--trials", type=_int_range(1, MAX_TRIALS), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-5)
    p.add_argument("--jobs", type=_int_range(1), default=1)

    p = sp.add_parser("product-check", help="check [p,q](r) = r")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--trials", type=_int_range(1, MAX_TRIALS), default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-5)

    p = sp.add_parser("invariance", help="affine equivariance deviation")
    _add_body(p)
    _add_point_id(p)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--trials", type=_int_range(1, MAX_TRIALS), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-6)

    p = sp.add_parser("preimage", help="solve p((C - z) polar) = 0 for z")
    _add_body(p)
    _add_point_id(p)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--init", type=_parse_xy, default=None)

    p = sp.add_parser("counterexample",
                      help="certify the non-injective cap point")
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--eps", type=float, default=None)

    p = sp.add_parser("iterate-product", help="iterates of [p,p] applied to r")
    _add_body(p)
    p.add_argument("--p", required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--k", type=_int_range(0, MAX_ITERATES), default=5)
    return ap


def _residual_worker(args):
    """Residual and failures of a run of the trial stream that starts at
    body ``offset``, with the failures under the bodies' own indices."""
    p, q, offset, bodies = args
    rep = dual_residual(p, q, bodies)
    return rep.max_residual, [(offset + i, msg) for i, msg in rep.failures]


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _dual_check(args) -> int:
    p, q = _point(args.p), _point(args.q)
    bodies = list(random_polygons(args.trials, args.seed))
    if args.jobs > 1:
        from multiprocessing import get_context

        # one contiguous run of the trials per process
        procs = min(args.jobs, args.trials, _cpus())
        cuts = [args.trials * j // procs for j in range(procs + 1)]
        work = [(p, q, a, bodies[a:b]) for a, b in zip(cuts, cuts[1:])]
        with get_context("fork").Pool(procs) as pool:
            results = pool.map(_residual_worker, work)
    else:
        results = [_residual_worker((p, q, 0, bodies))]
    worst = max(r for r, _ in results)
    failures = [f for _, fs in results for f in fs]
    passed = worst < args.tol and not failures
    _emit({"pair": [args.p, args.q], "bodies_tested": args.trials,
           "max_residual": worst, "tolerance": args.tol,
           "failures": [list(f) for f in failures], "passed": passed})
    return 0 if passed else 1


def _product_check(args) -> int:
    p, q, r = _point(args.p), _point(args.q), _point(args.r)
    worst = 0.0
    for P in random_polygons(args.trials, args.seed):
        dev = np.linalg.norm(product_apply(p, q, r, P) - eval_point(r, P).value)
        worst = max(worst, float(dev) / P.diameter)
    passed = worst < args.tol
    _emit({"triple": [args.p, args.q, args.r], "trials": args.trials,
           "max_deviation": worst, "tolerance": args.tol, "passed": passed})
    return 0 if passed else 1


def run_command(argv) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)

    if args.cmd == "point":
        P = parse_spec(args.body)
        res = eval_point(_point(args.id, args.eps, args.delta), P)
        _emit({"id": args.id, "value": res.value.tolist(),
               "iterations": res.iterations, "residual": res.residual})
        return 0

    if args.cmd == "polar":
        P = parse_spec(args.body)
        z = P.centroid if args.z is None else args.z
        Q = polar_about(P, z, translate=args.translate)
        _emit(serialize.polygon_to_dict(Q), args.svg, (P, Q))
        return 0

    if args.cmd == "shift":
        P = parse_spec(args.body)
        Q = k_sub_z(P, args.z)
        _emit(serialize.polygon_to_dict(Q), args.svg, (P, Q))
        return 0

    if args.cmd == "ellipse":
        P = parse_spec(args.body)
        E = john_ellipse(P) if args.which == "john" else loewner_ellipse(P)
        doc = serialize.ellipse_to_dict(E)
        if args.certify:
            mode = "inscribed" if args.which == "john" else "enclosing"
            cert = verify_john_conditions(P, E, mode)
            doc["certificate"] = {
                "contacts": [[list(u), w] for u, w in cert.contacts],
                "residual_sum": list(cert.residual_sum),
                "residual_identity": cert.residual_identity,
            }
        _emit(doc)
        return 0

    if args.cmd == "region":
        P = parse_spec(args.body)
        fn = getattr(regions, REGION_MAPS[args.which])
        R = fn(P, args.param, args.rays)
        doc = serialize.polygon_to_dict(R)
        doc["meta"] = {"rays": args.rays, "param": args.param,
                       "map": args.which}
        _emit(doc, args.svg, (P, R))
        return 0

    if args.cmd == "dual-check":
        return _dual_check(args)

    if args.cmd == "product-check":
        return _product_check(args)

    if args.cmd == "invariance":
        P = parse_spec(args.body)
        dev = invariance_check(_point(args.id, args.eps, args.delta), P,
                               args.trials, args.seed)
        passed = dev < args.tol
        _emit({"id": args.id, "max_deviation": dev, "trials": args.trials,
               "tolerance": args.tol, "passed": passed})
        return 0 if passed else 1

    if args.cmd == "preimage":
        C = parse_spec(args.body)
        pf = _point(args.id, args.eps, args.delta)
        z = polar_preimage(pf, C, args.init)
        resid = float(np.linalg.norm(eval_point(pf, polar_about(C, z)).value))
        _emit({"z": z.tolist(), "residual": resid})
        return 0

    if args.cmd == "counterexample":
        try:
            cert = noninjective.certify(args.eta, args.eps)
        except (NoRoot, CertificationFailure) as exc:
            _emit({"passed": False, "error": str(exc)})
            return 1
        _emit(cert.to_dict())
        return 0

    if args.cmd == "iterate-product":
        P = parse_spec(args.body)
        p, r = _point(args.p), _point(args.r)
        values = [v.tolist() for v in product_iterates(p, r, P, args.k)]
        _emit({"p": args.p, "r": args.r, "k": args.k, "values": values})
        return 0

    return 2


def main() -> None:
    try:
        sys.exit(run_command(sys.argv[1:]))
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
