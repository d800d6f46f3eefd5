"""Command line front end.

A manifest gives every sweep setting; the override flags of
:data:`TRACK_FLAGS` replace the ones they name, and the defaults of
:class:`TrackOptions` and :class:`manifest.InitSettings` fill the rest.

Subcommands
-----------
spectrum   refined eigenvalues of the manifest's model at one p (CSV)
track      sweep the continuation parameter, write the trajectory CSV and
           optionally root-locus / damping SVG plots
margin     locate every real-axis crossing of the tracked eigenvalue
validate   compare a tracked trajectory against recomputed spectra
gen        emit a reproducible random sparse model bundle

Exit codes: 0 success, 1 no result, 2 configuration or parse error,
3 trajectory truncated by a fold or a failed correction, 4 numerical
failure.  A ``--p-fin`` outside the family range is a configuration error
(exit 2) raised before the first step, so nothing is written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
from dataclasses import replace

import numpy as np

from . import charfun, oracle, spectral, svgplot
from .errors import (
    ConfigurationError,
    DelayTrackError,
    ManifestError,
    RangeError,
)
from .manifest import InitSettings, load_manifest, write_model_bundle
from .track import INTEGRATORS, TrackState, find_crossing, track_run

EXIT_OK = 0
EXIT_NO_RESULT = 1
EXIT_CONFIG = 2
EXIT_TRUNCATED = 3
EXIT_NUMERICAL = 4

TRAJECTORY_HEADER = ("p", "s_r", "s_i", "residual", "event")

# override flag -> (the TrackOptions field it sets, its argparse keywords)
TRACK_FLAGS = {
    "--dp": ("dp", dict(type=float, help="step size")),
    "--method": ("method", dict(choices=INTEGRATORS)),
    "--corrector-every": ("corrector_every", dict(type=int)),
    "--tol": ("corrector_tol", dict(type=float, metavar="TOL",
                                    help="corrector tolerance")),
    "--p-fin": ("p_fin", dict(type=float)),
}


def write_trajectory_csv(trajectory, fh):
    """Write samples as RFC-4180 CSV with one event-tag column."""
    tags = {}
    for ev in trajectory.events:
        tags.setdefault(ev.index, []).append(ev.kind)
    writer = csv.writer(fh, lineterminator="\r\n")
    writer.writerow(TRAJECTORY_HEADER)
    for i, st in enumerate(trajectory.samples):
        writer.writerow(
            [st.p, st.s_r, st.s_i, st.residual, ";".join(tags.get(i, []))]
        )


@contextlib.contextmanager
def _output(path):
    """The file ``path`` opened for writing, or stdout when it is None."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _initial_state(man, args):
    """Seed eigenpair at p_init: --init-from RE,IM or the rightmost mode."""
    p0 = man.p_init if args.p_init is None else args.p_init
    wams = man.track.wams
    if getattr(args, "init_from", None):
        try:
            re_s, im_s = (float(tok) for tok in args.init_from.split(","))
        except ValueError:
            raise ConfigurationError(
                f"--init-from expects RE,IM, got {args.init_from!r}"
            ) from None
        s0 = complex(re_s, im_s)
        form = man.family.split_form(p0, wams)
        # two steps of inverse iteration with P(s0) seed the eigenvector
        c, _, _ = charfun.coefficients(form, s0)
        lu = spectral._factor(charfun.eval_P(form.slots, c))
        rng = np.random.default_rng(7)
        phi0 = rng.standard_normal(form.r) + 1j * rng.standard_normal(form.r)
        for _ in range(2):
            phi0 = lu.solve(phi0)
            phi0 = phi0 / np.linalg.norm(phi0)
        ref = spectral.refine_newton(form, s0, phi0,
                                     tol=man.track.corrector_tol)
    else:
        pairs = oracle.spectrum_at(
            man.family, p0, N=man.init.N, shift=man.init.shift,
            count=man.init.count, tol=man.track.corrector_tol, wams=wams,
        )
        if not pairs:
            raise ConfigurationError(
                f"initializer found no refined eigenpair at p={p0}"
            )
        ref = pairs[0]  # sorted by descending real part
    return TrackState.from_eigenpair(p0, ref.s, ref.phi, ref.residual)


def _run_track(man, args):
    """Sweep from the seed of :func:`_initial_state` with the manifest's
    options, each field named in :data:`TRACK_FLAGS` replaced by its flag
    when given; returns (trajectory, options)."""
    options = replace(man.track, **{
        name: getattr(args, name) for name, _ in TRACK_FLAGS.values()
        if getattr(args, name) is not None})
    return track_run(man.family, _initial_state(man, args), options), options


def cmd_spectrum(args):
    man = load_manifest(args.manifest)
    p = man.p_init if args.p is None else args.p
    pairs = oracle.spectrum_at(
        man.family, p, N=man.init.N, shift=man.init.shift,
        count=man.init.count, wams=man.track.wams,
    )
    with _output(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["s_r", "s_i", "residual"])
        for pair in pairs:
            writer.writerow([pair.s.real, pair.s.imag, pair.residual])
    return EXIT_OK if pairs else EXIT_NO_RESULT


def cmd_track(args):
    man = load_manifest(args.manifest)
    traj, _ = _run_track(man, args)
    with _output(args.out) as fh:
        write_trajectory_csv(traj, fh)
    if args.svg:
        _write_svg_plots(traj, args.svg)
    return EXIT_TRUNCATED if traj.truncated else EXIT_OK


def _write_svg_plots(traj, base):
    s = traj.eigenvalues
    ps = traj.ps
    crossings = [
        (ev.s.real, ev.s.imag, f"p={ev.p:.6g}")
        for ev in traj.events
        if ev.kind == "axis_crossing"
    ]
    locus = svgplot.line_plot(
        [(s.real.tolist(), s.imag.tolist(), "eigenvalue")],
        title="Root locus",
        xlabel="Re(s)", ylabel="Im(s)", markers=crossings,
    )
    mag = np.abs(s)
    zeta = np.where(mag > 0.0, -s.real / np.where(mag > 0, mag, 1.0), 0.0)
    damping = svgplot.line_plot(
        [(ps.tolist(), zeta.tolist(), "damping ratio")],
        title="Damping vs parameter",
        xlabel="p", ylabel="-Re(s)/|s|",
    )
    with open(f"{base}.rootlocus.svg", "w") as fh:
        fh.write(locus)
    with open(f"{base}.damping.svg", "w") as fh:
        fh.write(damping)


def cmd_margin(args):
    man = load_manifest(args.manifest)
    traj, options = _run_track(man, args)
    crossings = find_crossing(man.family, traj, options)
    with _output(args.out) as fh:
        for p_star, s_star in crossings:
            fh.write(f"{p_star!r},{s_star.imag!r}\n")
    return EXIT_OK if crossings else EXIT_NO_RESULT


def cmd_validate(args):
    if args.checkpoints < 1:  # before the sweep, which it would waste
        raise ConfigurationError(f"--checkpoints {args.checkpoints} < 1")
    man = load_manifest(args.manifest)
    traj, options = _run_track(man, args)
    report = oracle.compare_trajectory(
        traj, man.family, checkpoint_count=args.checkpoints,
        options=options, pass_tol=args.pass_tol, N=man.init.N,
        count=man.init.count,
    )
    with _output(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(
            ["p", "s_r", "s_i", "oracle_s_r", "oracle_s_i", "distance"]
        )
        for p, tracked, best, dist in report.checkpoints:
            row = [p, tracked.real, tracked.imag]
            row += ["", ""] if best is None else [best.real, best.imag]
            row.append(dist)
            writer.writerow(row)
    print(
        f"max_distance={report.max_distance:.3e} "
        f"matched={report.matched_fraction:.3f}",
        file=sys.stderr,
    )
    return EXIT_OK if report.matched_fraction == 1.0 else EXIT_NO_RESULT


def cmd_gen(args):
    # a bundle whose [init] N cannot resolve its delays is refused by every
    # later command, so none is written
    spectral.check_degree(args.N, args.mu)
    model = oracle.rand_ddae(
        args.r, args.n_dyn if args.n_dyn is not None else args.r * 3 // 4,
        args.density, args.mu, args.seed,
    )
    if model.mu:
        tau = model.taus[0]
        p_range = (0.5 * tau, 2.0 * tau)
    else:
        p_range = (0.0, 1.0)
    path = write_model_bundle(
        model, args.out_dir, p_range, delay_index=0,
        init=InitSettings(N=args.N, shift=complex(0.0, 1.0)),
    )
    print(path)
    return EXIT_OK


def _add_track_flags(p):
    for flag, (name, keywords) in TRACK_FLAGS.items():
        p.add_argument(flag, dest=name, default=None, **keywords)
    p.add_argument("--p-init", type=float, default=None, dest="p_init")
    p.add_argument("--init-from", default=None, dest="init_from",
                   metavar="RE,IM", help="seed eigenvalue, Newton-refined")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="delaytrack",
        description="Eigenvalue tracking for linear delay models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="refined eigenvalues at one p")
    p.add_argument("manifest")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("track", help="sweep and write the trajectory CSV")
    p.add_argument("manifest")
    _add_track_flags(p)
    p.add_argument("--svg", default=None, metavar="BASE",
                   help="also write BASE.rootlocus.svg and BASE.damping.svg")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("margin", help="stability-margin crossings")
    p.add_argument("manifest")
    _add_track_flags(p)
    p.set_defaults(func=cmd_margin)

    p = sub.add_parser("validate", help="compare tracking against spectra")
    p.add_argument("manifest")
    _add_track_flags(p)
    p.add_argument("--checkpoints", type=int, default=11)
    p.add_argument("--pass-tol", type=float, default=1e-6, dest="pass_tol")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="emit a random model bundle")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n-dyn", type=int, default=None, dest="n_dyn")
    p.add_argument("--density", type=float, default=0.01)
    p.add_argument("--mu", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--N", type=int, default=12)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ManifestError, ConfigurationError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DelayTrackError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
