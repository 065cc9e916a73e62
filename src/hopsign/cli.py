"""Command line interface.

Subcommands: pi-union (full periodic-word union cloud), sample (random
periodic sections), finite (one open/periodised pair from a shared draw),
curve (iterate-word spectra against their closed-form curves), verify
(built-in self checks, JSON report on stdout).

Exit codes: 0 success, 1 verification failure (or I/O error), 2 invalid
configuration, 3 eigensolver failure or inclusion-bound violation.
"""

import argparse
import json
import os
import shlex
import sys
import time

import numpy as np

from . import one_line
from .eigen import SolverFailure
from .metrics import segment_distances
from .polyalg import p_table, trace_poly, uv_polys, verify_identities
from .seqcore import SignWord, c_iterate_word, sign_pattern
from .spectra import (SpectrumCloud, bloch_spectrum, closed_form_star,
                      pi_union, random_finite_sample, random_periodic_sample,
                      square_spectrum_check, symmetry_check, ue_bound_check)
from .svgfig import cloud_figure, overlay_names
from .transfer import (RegionParams, decay_check, ellipse_forms,
                       hole_clearance, rho_curve)


def _emit(cloud, args, default_overlays="", tag=None, figure=None):
    """Write the CSV and/or SVG a subcommand asked for, named by tag when
    given; figure(cloud, overlays) draws the SVG, cloud_figure by default."""
    out_csv, out_svg = (_derived_path(p, tag)
                        for p in (args.out_csv, args.out_svg))
    if out_csv:
        cloud.write_csv(out_csv, command=args.command_line)
        print(f"wrote {one_line(out_csv)}")
    if out_svg:
        overlay = args.overlay if args.overlay is not None else default_overlays
        fig = (figure or cloud_figure)(cloud, overlay)
        fig.write(out_svg, command=args.command_line)
        print(f"wrote {one_line(out_svg)}")


def _derived_path(path, tag):
    """dir/name.ext -> dir/name.tag.ext; unchanged when path or tag is empty"""
    if not (path and tag):
        return path
    stem, ext = os.path.splitext(path)
    return f"{stem}.{tag}{ext}"


def cmd_pi_union(args):
    cloud = pi_union(args.nmax, args.sigma, args.alpha_count)
    pts = cloud.points
    f = np.maximum(*ellipse_forms(pts, RegionParams(args.sigma)))
    n_in = int((f < 0).sum())  # in the open hole, both ellipse interiors
    print(f"pi-union: sigma={args.sigma:g} n_max={args.nmax} "
          f"alpha_count={args.alpha_count}: {len(cloud)} points")
    print(f"points inside the central hole: {n_in}")
    if args.sigma < 1.0:
        print(f"min distance to the closed hole: "
              f"{hole_clearance(pts, args.sigma):.6g}")
    else:
        print("min distance to the closed hole: n/a (hole empty at sigma=1)")
    _emit(cloud, args, default_overlays="ellipses,annulus,diamond,hole")
    return 0


def cmd_sample(args):
    cloud = random_periodic_sample(args.count, (3, args.nmax), args.p_sigma,
                                   args.sigma, args.seed)
    pts = cloud.points
    mod = np.abs(pts)
    l1 = np.abs(pts.real) + np.abs(pts.imag)
    params = RegionParams(args.sigma)
    print(f"sample: {args.count} draws, N in [3, {args.nmax}], "
          f"sigma={args.sigma:g}, p_sigma={args.p_sigma:g}, seed={args.seed}: "
          f"{len(cloud)} eigenvalues")
    print(f"|lam| in [{mod.min():.6g}, {mod.max():.6g}]  "
          f"(annulus [{params.annulus_inner:g}, {params.annulus_outer:g}])")
    print(f"max |x|+|y| = {l1.max():.6g}  "
          f"(diamond bound {params.diamond_bound:.6g})")
    _emit(cloud, args, default_overlays="annulus,diamond")
    return 0


def cmd_finite(args):
    open_cloud, per_cloud = random_finite_sample(args.nmax, args.p_sigma,
                                                 args.sigma, args.seed)
    op, pp = open_cloud.points, per_cloud.points
    l1 = np.abs(op.real) + np.abs(op.imag)
    print(f"finite: N={args.nmax}, sigma={args.sigma:g}, "
          f"p_sigma={args.p_sigma:g}, seed={args.seed} (shared sign draw)")
    print(f"open section:      max |x|+|y| = {l1.max():.6g}  "
          f"(bound 2 sqrt(sigma) = {2.0 * np.sqrt(args.sigma):.6g})")
    print(f"periodised section: |lam| in [{np.abs(pp).min():.6g}, "
          f"{np.abs(pp).max():.6g}]")
    for tag, cloud in (("open", open_cloud), ("periodic", per_cloud)):
        _emit(cloud, args, tag=tag)
    return 0


def _curve_samples(n, branch, sigma):
    """Dense polyline of the closed-form spectrum: the smooth rho curve for
    sigma < 1, the star segments (each as a 2-point piece) at sigma = 1."""
    if sigma < 1.0:
        th = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        return [rho_curve(n, branch, th, sigma) * np.exp(1j * th)]
    starts, ends = closed_form_star(n, branch)
    return [np.array([a, b]) for a, b in zip(starts, ends)]


def _curve_deviation(pts, n, branch, sigma):
    """Max distance from computed eigenvalues to the closed-form spectrum:
    radial gap at each point's own angle for sigma < 1, exact distance to
    the star segments at sigma = 1."""
    if sigma < 1.0:
        gap = np.abs(np.abs(pts) - rho_curve(n, branch, np.angle(pts), sigma))
        return float(gap.max())
    starts, ends = closed_form_star(n, branch)
    return float(segment_distances(pts, starts, ends).max())


def cmd_curve(args):
    n = args.nmax
    if n > 8:
        raise ValueError("curve index must be <= 8 (period 2^(n+1) explodes)")
    branches = ["+", "-"] if args.branch == "both" else [args.branch]
    for br in branches:
        word = c_iterate_word(n, br, args.sigma)
        tag = {"+": "plus", "-": "minus"}[br] if len(branches) > 1 else None
        pieces = _curve_samples(n, br, args.sigma)
        if args.mode == "closed-form":  # the CSV holds the curve samples
            cloud = SpectrumCloud(args.sigma, params={
                "mode": "closed-form", "curve_n": n, "branch": br})
            cloud.register_word(0, sign_pattern(word.signs))
            cloud.add(np.array(pieces), 0, 0, 0)
        else:
            cloud = bloch_spectrum(word, args.alpha_count)
            cloud.params.update(curve_n=n, branch=br)
        if args.mode == "both":
            dev = _curve_deviation(cloud.points, n, br, args.sigma)
            print(f"curve n={n} branch={br}: max deviation of "
                  f"{len(cloud)} eigenvalues from the closed form: {dev:.6g}")

        def figure(cloud, overlays, xmax=None):
            if args.mode == "closed-form":  # no points, framed to the curve
                xmax = 1.08 * float(np.abs(cloud.points).max())
                cloud = SpectrumCloud(args.sigma)
            fig = cloud_figure(cloud, overlays, xmax)
            for piece in pieces if args.mode != "bloch" else ():
                fig.add_polyline(piece, color="#c62828", width=1.5,
                                 closed=args.sigma < 1.0)
            return fig
        _emit(cloud, args, tag=tag, figure=figure)
    return 0


# ---------------------------------------------------------------- verify

def _check_tables():
    u, v = uv_polys(9)
    pins = [
        (u[5], [-1, 0, 1, 0, 1]),
        (v[9], [0, -2, 0, -2, 0, -2, 0, -1]),
        (u[8], [0, 0, 0, 0, 0, 0, 0, 1]),
        (v[4], [-1, 0, -1]),
        (trace_poly(5), [0, -3, 0, -1, 0, 1]),
        (trace_poly(8), [-2, 0, 0, 0, 0, 0, 0, 0, 1]),
    ]
    bad = sum(not np.array_equal(np.trim_zeros(got, "b"), want)
              for got, want in pins)
    return bad == 0, float(bad), f"{len(pins)} reference polynomials"


def _check_identities():
    rep = verify_identities(10)
    bad = [row for row in rep if not row["ok"]]
    detail = (f"first failure: {bad[0]['check']} at r={bad[0]['r']}"
              if bad else f"{len(rep)} identity rows, r <= 10")
    return not bad, float(len(bad)), detail


def _check_p_table():
    top = 512
    table = p_table(top)
    u, _ = uv_polys(top)
    bad = int(np.any(table.p[1:, 1:] != u[1:top + 1, :top], axis=1).sum())
    bad += int(np.count_nonzero(
        table.p[1:, 1] != table.constant_coefficients()[1:]))
    return bad == 0, float(bad), f"rows 1..{top} against the u recurrence"


def _check_recurrence_bound(tol):
    g = np.random.Generator(np.random.Philox(key=[20260823, 9]))
    lam = 0.9 * np.sqrt(g.random(100)) * np.exp(2j * np.pi * g.random(100))
    res = ue_bound_check(lam, 10 ** 4)
    err = float(np.max(res["max_abs"] - res["bound"]))
    return err <= tol, max(err, 0.0), "100 points |lam| <= 0.9, i_max 10^4"


def _check_square(tol):
    worst = 0.0
    for signs in ((-1,), (1, -1)):
        res = square_spectrum_check(SignWord(signs, 0.25), 128)
        worst = max(worst, res["hausdorff_sq_vs_b"],
                    res["hausdorff_m_vs_b"], res["per_alpha_mismatch"])
    return worst <= tol, worst, "words -, +- at sigma^2 = 0.25, alpha 128"


def _check_symmetry(tol):
    res = symmetry_check(pi_union(4, 0.5, 64), tol)
    worst = max(res["rev_max"], res["flip_max"], res["rot_max"])
    return (res["ok"], worst, "pi_union(4, 0.5, 64) closure under i*; "
            "det residuals of 3 chiral words under rev, flip, -1, alpha 64")


def _check_decay():
    ring = np.outer((0.2, 0.4, 0.6, 0.8), np.exp(1j * np.pi * np.arange(8) / 4))
    rate = decay_check(np.r_[0.0, ring.ravel(), 1.2], 0.5, 3)["rate"]
    inside, grow = rate[:-1].max(), rate[-1]
    return (bool(inside < 1.0 < grow), max(inside - 1.0, 1.0 - grow, 0.0),
            "sigma 0.5, d 3: decay on |lam|<=0.8, growth at 1.2")


def _check_curves(tol):
    worst = 0.0
    for n in (0, 1):
        for br in ("+", "-"):
            cloud = bloch_spectrum(c_iterate_word(n, br, 0.5), 128)
            worst = max(worst, _curve_deviation(cloud.points, n, br, 0.5))
    return worst <= tol, worst, "n in {0,1}, both branches, sigma 0.5"


def cmd_verify(args):
    tol = args.tol
    checks = [
        ("tables", _check_tables),
        ("identities", _check_identities),
        ("p_table", _check_p_table),
        ("recurrence_bound", lambda: _check_recurrence_bound(tol or 1e-9)),
        ("square_spectrum", lambda: _check_square(tol or 1e-6)),
        ("symmetry", lambda: _check_symmetry(tol or 1e-8)),
        ("decay", _check_decay),
        ("curves", lambda: _check_curves(tol or 1e-6)),
    ]
    rows = []
    print(f"{'check':<18} {'status':<7} {'max_error':<12} {'ms':<9} detail",
          file=sys.stderr)
    for name, fn in checks:
        t0 = time.perf_counter()
        ok, err, detail = fn()
        ms = 1000.0 * (time.perf_counter() - t0)
        rows.append({"check": name, "status": "pass" if ok else "fail",
                     "max_error": err, "runtime_ms": round(ms, 3)})
        print(f"{name:<18} {'pass' if ok else 'FAIL':<7} {err:<12.4g} "
              f"{ms:<9.1f} {detail}", file=sys.stderr)
    print(json.dumps(rows, indent=2))
    return 0 if all(r["status"] == "pass" for r in rows) else 1


# ---------------------------------------------------------------- parser

def _positive_float(text):
    """argparse type: a finite float > 0."""
    value = float(text)
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite number > 0")
    return value


def _add_output_args(p):
    p.add_argument("--out-csv", metavar="PATH", help="write the point cloud")
    p.add_argument("--out-svg", metavar="PATH", help="write a figure")
    p.add_argument("--overlay", metavar="NAMES", type=overlay_names,
                   help="comma-separated guide curves: annulus, diamond, "
                        "hole, ellipses (default depends on the subcommand)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hopsign",
        description="Spectra of tridiagonal operators with random hopping "
                    "signs: union clouds, random sections, closed-form "
                    "curves, and self checks.",
        epilog="exit codes: 0 ok, 1 verification/io failure, "
               "2 invalid configuration, 3 solver failure")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pi-union",
                       help="union cloud over all words of period <= n_max")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--nmax", type=int, default=12,
                   help="max word period (default 12)")
    p.add_argument("--alpha-count", type=int, default=256)
    _add_output_args(p)
    p.set_defaults(func=cmd_pi_union)

    p = sub.add_parser("sample", help="random periodised sections")
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--nmax", type=int, default=100,
                   help="max section size (default 100)")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--p-sigma", type=float, default=0.5,
                   help="probability of the + sign (default 0.5)")
    p.add_argument("--seed", type=int, required=True)
    _add_output_args(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("finite",
                       help="one open + periodised pair from a shared draw")
    p.add_argument("--nmax", type=int, default=500,
                   help="section size N (default 500)")
    p.add_argument("--sigma", type=float, default=0.9025)
    p.add_argument("--p-sigma", type=float, default=0.5)
    p.add_argument("--seed", type=int, required=True)
    _add_output_args(p)
    p.set_defaults(func=cmd_finite)

    p = sub.add_parser("curve",
                       help="iterate-word spectra vs closed-form curves")
    p.add_argument("--nmax", type=int, default=0,
                   help="curve index n (word period 2^(n+1) for n >= 2, "
                        "default 0)")
    p.add_argument("--branch", choices=["+", "-", "both"], default="both")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--alpha-count", type=int, default=512)
    p.add_argument("--mode", choices=["closed-form", "bloch", "both"],
                   default="both")
    _add_output_args(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("verify", help="run the built-in self checks")
    p.add_argument("--tol", type=_positive_float, default=None,
                   help="override the per-check distance tolerances")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    args.command_line = " ".join(["hopsign"] + [shlex.quote(a) for a in argv])
    try:
        return args.func(args)
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:  # a refused allocation too
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
