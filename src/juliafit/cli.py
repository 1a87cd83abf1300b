"""Command-line pipeline.

Commands: build (curve -> polynomial + certificate), render (dump -> image +
field), verify (field or dump vs. curves -> report), rational (several curves
-> combined rational map), annulus (curve pair -> annulus map).

build writes ``shape.json`` and ``certificate.json``; rational and annulus
write ``system.json`` and ``certificate.json``, then render and verify their
map. The three share ``_fit``: an exterior map per curve, kept in memory, its
inflation, and the degree search. The curves are fitted one after another in
this process, so the "map ready" lines and the first error come in the order
of the curves.

render and verify take a dump of any of the three maps (``shape.json`` from
build, ``system.json`` from rational and annulus); verify also takes a
``field.json``. A malformed dump exits 2.

verify compares the rendered sets with the region inside an odd number of the
target curves: the union of their insides when they lie apart, the band
between two nested curves (in either order, as for annulus). Target curves
that cross or touch exit 3. There is no --annulus flag.

Certificates, fields and reports embed the run configuration; identical
configurations produce byte-identical outputs, wherever they are written. The
configuration records input paths (``input``/``inputs``, ``--certificate``,
``--curve``) by basename and never records the ``--out`` directory.

build, rational and annulus certify their map from --samples (at least 256)
boundary samples per band curve, by maximum modulus (see ``dynamics`` and
``rational``); no command draws at random, so --seed, which every command
takes and the configuration records, selects nothing. The dumped map holds
its shapes; the bands follow from the inputs and the recorded configuration.

Exit codes: 0 ok, 2 parse, 3 geometry, 4 certification fail,
5 verification fail, 6 io, including a worker process that died.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import conformal, curves, dynamics, rational, shapepoly
from .dumps import load_dump, save_dump, write_json
from .render import (
    MIN_GRID,
    EscapeField,
    render as render_grid,
    save_field,
    verify_hausdorff,
    write_image,
)
from .errors import (
    GeometryRejected, JuliafitError, NoDegreeFound, ParseError, TooFewPoints,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_CERTIFICATION = 4
EXIT_VERIFICATION = 5
EXIT_IO = 6

_PARSE_ERRORS = (ParseError, TooFewPoints)
_MAPS = (shapepoly.ShapePolynomial, rational.MultiShapeSystem, rational.AnnulusSystem)
_CERTIFICATES = (dynamics.EscapeCertificate, rational.MultiCertificate,
                 rational.SCertificate)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _outpath(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


_PATH_OPTIONS = {"input", "inputs", "certificate", "curve"}


def _config(args, command: str) -> dict:
    cfg = {"command": command}
    for k, v in sorted(vars(args).items()):
        if k in ("func", "out") or callable(v):
            continue
        if k in _PATH_OPTIONS and v is not None:
            v = ([os.path.basename(str(p)) for p in v] if isinstance(v, list)
                 else os.path.basename(str(v)))
        cfg[k] = v
    return cfg


def _schedule(args) -> list[int]:
    if args.n is not None:
        return [args.n]
    out = []
    n = 8
    while n < args.n_max:
        out.append(n)
        n *= 2
    out.append(args.n_max)
    return out


def _pipeline_bbox(curve_list, delta: float):
    los = [c.bbox[0] for c in curve_list]
    his = [c.bbox[1] for c in curve_list]
    x0 = min(p.real for p in los)
    y0 = min(p.imag for p in los)
    x1 = max(p.real for p in his)
    y1 = max(p.imag for p in his)
    pad = max(1.15 * delta, 0.10 * max(x1 - x0, y1 - y0))
    return (complex(x0 - pad, y0 - pad), complex(x1 + pad, y1 + pad))


# ---------------------------------------------------------------------------
# fitting and output helpers


def _fit(args, curve_list, bands, t: complex, assemble, certify):
    """Fit one map to the curves, the shared core of build, rational and
    annulus. Shifts the curves and their bands by t, builds each curve's
    exterior map about its shifted centroid with its inflation (or
    --epsilon), then searches the degree schedule for the least n at which
    ``certify(assemble(*shapes), shifted bands, samples)`` passes, the shapes
    taken in the order of the curves. Prints one "map ready" line per curve,
    in their order and up to the first that fails, and the certified line;
    returns the certified map, its certificate and the inflations."""
    bands_t = [b.translated(-t) for b in bands]
    maps = []
    # one curve at a time: on 2 CPUs, a pool of two saved nothing at 128 stages
    for curve, band in zip(curve_list, bands_t):
        curve = curve.translated(-t)
        p = curve.centroid
        m = conformal.build_exterior_map(curve, p, resample=args.resample)
        eps = (shapepoly.select_epsilon(m, band.translated(-p)) if args.epsilon is None
               else args.epsilon)
        _say(f"map ready: boundary rmse {m.boundary_rmse:.3g}, inflation {eps}")
        maps.append((m, eps))
    system, cert = dynamics.find_min_degree(
        lambda n: assemble(*(shapepoly.sample_roots(m, eps, n, t=t) for m, eps in maps)),
        lambda candidate: certify(candidate, bands_t, args.samples), _schedule(args))
    _say_margins("certified at", cert.n_certified, cert.margins())
    return system, cert, [eps for _, eps in maps]


def _render(args, system, bbox, radii):
    escape_radius, capture_radius = radii
    return render_grid(
        system, bbox, args.grid, args.grid, escape_radius=escape_radius,
        capture_radius=capture_radius, max_iter=args.max_iter)


def _say_margins(what: str, n: int, margins: dict) -> None:
    text = ", ".join(f"{k} {v:.3g}" for k, v in margins.items())
    _say(f"{what} n = {n} (margins: {text})")


def _report(args, cfg, field, curve_list, delta: float) -> int:
    """Verify the field against the curves, write report.json, return the exit code."""
    rep = verify_hausdorff(field, curve_list, delta)
    robj = rep.to_obj()
    robj["config"] = cfg
    write_json(robj, _outpath(args, "report.json"))
    _say(f"d_K={rep.d_K:.4g} d_J={rep.d_J:.4g} d_L={rep.d_L:.4g} "
         f"tolerance={rep.delta + rep.pixel_diag:.4g} pass={rep.passed}")
    return EXIT_OK if rep.passed else EXIT_VERIFICATION


def _finish(args, cfg, system, cert, curve_list, delta: float) -> int:
    """Tail of rational and annulus: save the certified system and its
    certificate, render the field over the curves padded by delta, verify it
    and report."""
    save_dump(system, _outpath(args, "system.json"))
    dynamics.save_certificate(cert, _outpath(args, "certificate.json"), config=cfg)
    field = _render(args, system, _pipeline_bbox(curve_list, delta),
                    (cert.escape_radius, cert.capture_radius))
    save_field(field, _outpath(args, "field.json"), config=cfg)
    write_image(field, _outpath(args, "image.pgm"))
    return _report(args, cfg, field, curve_list, delta)


# ---------------------------------------------------------------------------
# commands


def cmd_build(args) -> int:
    curve = curves.load_curve(args.input)
    eps_geom = args.eps_geom if args.eps_geom is not None else 0.05 * curve.diameter
    cfg = _config(args, "build")
    cfg["eps_geom_used"] = eps_geom
    shape, cert, (eps,) = _fit(
        args, [curve], [curves.offset_annulus(curve, eps_geom)], curve.centroid,
        lambda shape: shape,
        lambda shape, bands, samples: dynamics.certify(shape, *bands, samples))
    cfg["epsilon_used"] = eps
    save_dump(shape, _outpath(args, "shape.json"))
    dynamics.save_certificate(cert, _outpath(args, "certificate.json"), config=cfg)
    return EXIT_OK


def _radii(args, roots) -> tuple[float, float]:
    """(escape, capture) radii from --certificate, or else 1.2 max|r| and
    0.5 min|r| over the roots in the shifted frame."""
    if args.certificate:
        cert = load_dump(args.certificate, _CERTIFICATES)
        if not (math.isfinite(cert.escape_radius)
                and cert.escape_radius > cert.capture_radius > 0):
            raise ParseError(f"certificate radii need finite escape > capture > 0, "
                             f"got {cert.escape_radius} and {cert.capture_radius}")
        return cert.escape_radius, cert.capture_radius
    mags = np.abs(roots)
    if not mags.min() > 0:
        raise ParseError("a root sits at the frame origin, so the default capture "
                         "radius is 0; give the radii with --certificate")
    return 1.2 * float(mags.max()), 0.5 * float(mags.min())


def cmd_render(args) -> int:
    system = load_dump(args.input, _MAPS)
    cfg = _config(args, "render")
    if args.bbox:
        x0, y0, x1, y1 = args.bbox
        bbox = (complex(x0, y0), complex(x1, y1))
    else:
        orig = system.roots + system.t
        span = max(np.ptp(orig.real), np.ptp(orig.imag))
        pad = args.margin * span
        bbox = (complex(orig.real.min() - pad, orig.imag.min() - pad),
                complex(orig.real.max() + pad, orig.imag.max() + pad))
    field = _render(args, system, bbox, _radii(args, system.roots))
    save_field(field, _outpath(args, "field.json"), config=cfg)
    write_image(field, _outpath(args, "image.pgm"))
    _say(f"rendered {args.grid}x{args.grid} field")
    return EXIT_OK


def cmd_verify(args) -> int:
    dumped = load_dump(args.input, _MAPS + (EscapeField,))
    curve_list = [curves.load_curve(p) for p in args.curve]
    field = dumped if isinstance(dumped, EscapeField) else _render(
        args, dumped, _pipeline_bbox(curve_list, args.delta), _radii(args, dumped.roots))
    return _report(args, _config(args, "verify"), field, curve_list, args.delta)


def cmd_rational(args) -> int:
    curve_list = [curves.load_curve(p) for p in args.inputs]
    delta = (args.delta if args.delta is not None
             else 0.2 * max(c.diameter for c in curve_list))
    pairs = [(a, b) for i, a in enumerate(curve_list) for b in curve_list[i + 1:]]
    if any(curves.relation(a, b) == "meet" for a, b in pairs):
        raise GeometryRejected("curves touch or intersect")
    delta1 = min([delta / 3.0] + [0.5 * curves.curve_gap(a, b) for a, b in pairs])
    eps_geom = args.eps_geom if args.eps_geom is not None else delta1 / 2.0
    anns = [curves.offset_annulus(c, eps_geom) for c in curve_list]
    rational.validate_mutually_exterior(anns)

    interiors = [a.inner for a in anns]
    areas = np.array([c.area for c in curve_list])
    union_centroid = complex(np.sum(
        np.array([c.centroid for c in curve_list]) * areas) / areas.sum())
    t = union_centroid
    if not any(i.contains([t])[0] for i in interiors):
        t = curve_list[0].centroid

    cfg = _config(args, "rational")
    cfg.update(eps_geom_used=eps_geom, delta_used=delta,
               t_used=[t.real, t.imag])

    system, cert, _ = _fit(args, curve_list, anns, t,
                           lambda *shapes: rational.MultiShapeSystem(shapes=shapes),
                           rational.certify_multi)
    return _finish(args, cfg, system, cert, curve_list, delta)


def _default_basepoint(outer: curves.JordanCurve, inner: curves.JordanCurve) -> complex:
    """Midpoint of the gap between the curves along the ray from the inner
    centroid through the inner curve's rightmost vertex."""
    start = complex(inner.points[int(np.lexsort((inner.points.imag,
                                                 inner.points.real))[-1])])
    direction = start - inner.centroid
    direction /= abs(direction)
    s = np.linspace(0.0, outer.diameter, 4096)
    probes = start + direction * s
    outside = ~outer.contains(probes)
    idx = int(np.argmax(outside)) if outside.any() else len(s) - 1
    return complex(start + direction * (s[idx] / 2.0))


def cmd_annulus(args) -> int:
    outer = curves.load_curve(args.inputs[0])
    inner = curves.load_curve(args.inputs[1])
    how = curves.relation(outer, inner)
    if how != "contains":
        raise GeometryRejected("annulus curves cross or touch" if how == "meet"
                               else "second curve must lie inside the first")
    xi = curves.curve_gap(outer, inner)
    delta = args.delta if args.delta is not None else 0.2 * outer.diameter
    delta1 = min(delta, xi) / 3.0
    eps_geom = args.eps_geom if args.eps_geom is not None else delta1 / 2.0
    bands = [curves.offset_annulus(c, eps_geom) for c in (outer, inner)]

    t = complex(*args.basepoint) if args.basepoint else _default_basepoint(outer, inner)
    cfg = _config(args, "annulus")
    cfg.update(eps_geom_used=eps_geom, delta_used=delta, xi=xi,
               t_used=[t.real, t.imag])

    system, cert, _ = _fit(
        args, [outer, inner], bands, t, rational.AnnulusSystem,
        lambda system, bands, samples: rational.certify_S(system, *bands, samples))
    return _finish(args, cfg, system, cert, [outer, inner], delta)


# ---------------------------------------------------------------------------
# parser


def _number(kind, low, above: bool = False, high=math.inf):
    """argparse type: a `kind` of at least `low` (above it, with above), at most `high`."""
    def parse(text: str):
        value = kind(text)
        if (value > low or (value == low and not above)) and value <= high:
            return value
        top = f" and at most {high}" if high < math.inf else ""
        raise argparse.ArgumentTypeError(f"must be {'above' if above else 'at least'} {low}{top}")

    parse.__name__ = kind.__name__
    return parse


_POSITIVE = _number(float, 0.0, above=True)


def _add_common(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--out", default=".", help="output directory (default: .)")
    ap.add_argument("--seed", type=_number(int, 0), default=0,
                    help="recorded in the configuration; selects nothing, since no "
                         "command draws at random (default 0)")


def _add_build(ap: argparse.ArgumentParser) -> None:
    roots = _number(int, shapepoly.MIN_ROOTS)
    ap.add_argument("--samples", type=_number(int, dynamics.MIN_SAMPLES), default=4096,
                    help="boundary samples per curve for certification (default 4096)")
    ap.add_argument("--n", type=roots, default=None,
                    help="exact root count (default: search the doubling schedule)")
    ap.add_argument("--n-max", type=roots, default=512, dest="n_max",
                    help="largest root count to try (default 512)")
    ap.add_argument("--epsilon", type=_POSITIVE, default=None,
                    help="override the circle inflation (default: halving search)")
    ap.add_argument("--eps-geom", type=_POSITIVE, default=None, dest="eps_geom",
                    help="offset distance for the annulus (default: 5%% of diameter "
                         "for build, delta/6 for rational/annulus)")
    ap.add_argument("--resample", type=_number(int, curves.MIN_POINTS), default=128,
                    help="slit-map stages of each exterior map (default 128)")


def _add_render(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--grid", type=_number(int, MIN_GRID), default=512,
                    help="render grid size (default 512)")
    ap.add_argument("--max-iter", type=_number(int, 1, high=np.iinfo(np.uint32).max),
                    default=200, dest="max_iter",
                    help="iteration budget per pixel (default 200)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="juliafit",
        description="Fit escape-time fractal boundaries to prescribed curves.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="curve file -> shape polynomial + certificate")
    p.add_argument("input", help="curve file ('x y' lines or JSON points)")
    _add_common(p)
    _add_build(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("render", help="dump file -> escape field + image")
    p.add_argument("input", help="shape/system dump (JSON)")
    _add_common(p)
    _add_render(p)
    p.add_argument("--certificate", default=None,
                   help="certificate JSON supplying escape/capture radii")
    p.add_argument("--bbox", type=float, nargs=4, default=None,
                   metavar=("X0", "Y0", "X1", "Y1"),
                   help="render window, finite with X0 < X1 and Y0 < Y1")
    p.add_argument("--margin", type=_number(float, 0.0), default=0.3,
                   help="relative margin around the roots when --bbox is absent")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="field or dump vs. curves -> report")
    p.add_argument("input", help="field dump or shape/system dump")
    _add_common(p)
    _add_render(p)
    p.add_argument("--curve", action="append", required=True,
                   help="target curve file (repeatable)")
    p.add_argument("--delta", type=_number(float, 0.0), required=True,
                   help="target Hausdorff tolerance")
    p.add_argument("--certificate", default=None,
                   help="certificate JSON supplying escape/capture radii")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rational", help="curve files -> combined rational map")
    p.add_argument("inputs", nargs="+", metavar="input",
                   help="curve files (mutually exterior)")
    _add_common(p)
    _add_build(p)
    _add_render(p)
    p.add_argument("--delta", type=_POSITIVE, default=None,
                   help="Hausdorff tolerance (default: 20%% of largest diameter)")
    p.set_defaults(func=cmd_rational)

    p = sub.add_parser("annulus", help="outer+inner curves -> annulus map")
    p.add_argument("inputs", nargs=2, metavar="curve",
                   help="curve files: outer, then inner")
    _add_common(p)
    _add_build(p)
    _add_render(p)
    p.add_argument("--delta", type=_POSITIVE, default=None,
                   help="Hausdorff tolerance (default: 20%% of outer diameter)")
    p.add_argument("--basepoint", type=float, nargs=2, default=None,
                   metavar=("X", "Y"), help="basepoint in the middle region")
    p.set_defaults(func=cmd_annulus)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "render" and args.bbox is not None:
        x0, y0, x1, y1 = args.bbox
        if not (all(map(math.isfinite, args.bbox)) and x0 < x1 and y0 < y1):
            ap.error("render: --bbox needs finite X0 < X1 and Y0 < Y1")
    try:
        return args.func(args)
    except _PARSE_ERRORS as exc:
        _say(f"error [{exc.code}]: {exc}")
        return EXIT_PARSE
    except NoDegreeFound as exc:
        _say(f"error [{exc.code}]: {exc}")
        if exc.best:
            best = exc.best
            _say_margins("best failing at", best["n_certified"], best["margins"])
        return EXIT_CERTIFICATION
    except JuliafitError as exc:
        _say(f"error [{exc.code}]: {exc}")
        return EXIT_GEOMETRY
    except OSError as exc:
        _say(f"io error: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
