"""Command line entry point: run / verify / profile / seed.

Exit codes: 0 ok, 1 assumption failure, 2 flow error (a seed that is not
strictly starshaped for the scheduled field, starshape lost, mesh
degenerate, domain exit, graph gradient bound exceeded, any other package
error), 3 non-convergence, 64 bad config or unusable --out.  Every exit
path prints `STATUS=<ok|assumptions|flow|nonconv|config>` to stderr.  A
package error ends in `main`'s one handler: it writes the partial trace
the error carries, if any, as `trace.csv`, then takes the status and the
message prefix from the first `EXITS` entry the error is an instance of.
A flow error from the time loop names the step and time it came from
("flow error: graph step 0 from t=0: ..."), whatever raised it.  `run`
saves every `output.frame_every`-th loop-top snapshot, and the last one,
as `frame_<step>.obj`.
"""

import argparse
import os
import sys

import numpy as np

from . import ambient, ckv, diagnostics, flow, surface
from .config import load_config
from .errors import (
    CkflowError,
    ConfigError,
    DomainExit,
    ProfileNotMonotone,
    ScheduleInfeasible,
    SeedInfeasible,
)

STATUS_CODE = {"ok": 0, "assumptions": 1, "flow": 2, "nonconv": 3, "config": 64}

# the first class an error is an instance of gives its status and prefix
EXITS = (
    (ConfigError, ("config", "config error")),
    (ScheduleInfeasible, ("assumptions", "schedule infeasible")),
    (SeedInfeasible, ("flow", "starshape violation")),
    (ProfileNotMonotone, ("flow", "profile error")),
    (CkflowError, ("flow", "flow error")),
)


def _status(name):
    print(f"STATUS={name}", file=sys.stderr)
    return STATUS_CODE[name]


def make_geometry(cfg):
    kind = cfg["geometry"]
    if kind == "poincare_ball":
        return ambient.make_geometry(kind, radius=cfg["poincare_ball.radius"])
    return ambient.make_geometry(kind)


def make_pair(cfg):
    return ckv.KillingPair(omega=cfg["rotation.omega"], axis=cfg["rotation.axis"])


def _base_seed(cfg, level):
    """The untwisted sphere or ellipsoid of the run file's seed."""
    if cfg["seed.kind"] == "sphere":
        return surface.sphere_seed(cfg["seed.radius"], level)
    return surface.ellipsoid_seed(cfg["seed.semiaxes"], level)


def make_seed(cfg, geom, pair, base=None):
    """The run file's seed through `surface.checked_seed`; returns (mesh,
    min_u, min_uperp) or raises DomainExit or SeedInfeasible.  `base` is the
    run file's `_base_seed` at its level, built here if None."""
    tau = cfg["seed.twist"] if cfg["seed.kind"] == "twisted" else 0.0
    if base is None:
        base = _base_seed(cfg, cfg["seed.level"])
    return surface.checked_seed(base, geom, pair, tau)


def shell_bounds(cfg, geom, base=None):
    """Leaf-label band covering the seed with padding for flow excursions.

    The twist preserves radii, so the untwisted base surface gives the
    correct band for every seed kind.  The band is taken over the base's
    vertices at level min(seed.level, 3): subdivision only appends
    vertices, so they are the first 10 * 4**level + 2 of `base`, the run
    file's `_base_seed` (None builds it at that level).  A base vertex
    outside the chart domain, or a band left empty by the clip below the
    outer boundary, raises DomainExit.
    """
    level = min(cfg["seed.level"], 3)
    if base is None:
        base = _base_seed(cfg, level)
    verts = base.vertices[:10 * 4**level + 2]
    geom.require_in_domain(verts, what="seed vertex")
    lam_v = ckv.lam(geom, verts)
    lo, hi = 0.75 * float(np.min(lam_v)), 1.3 * float(np.max(lam_v))
    r_out = float(geom.outer_distance(np.zeros(3)))
    if np.isfinite(r_out):
        hi = min(hi, float(ckv.lam(geom, np.array([0.98 * r_out, 0.0, 0.0]))))
    if not 0.0 < lo < hi:
        raise DomainExit(f"the seed's leaf-label band [{lo:.6g}, {hi:.6g}] "
                         f"is empty in the {geom.name} chart")
    return lo, hi


def make_ctrl(cfg):
    return flow.StepControl(
        cfl=cfg["flow.cfl"],
        t_end=cfg["flow.t_end"],
        leaf_tol=cfg["flow.leaf_tol"],
        max_steps=cfg["flow.max_steps"],
    )


def make_schedule(cfg, geom, pair, lam_lo, lam_hi):
    t0 = cfg["schedule.t0"]
    if t0 == "auto":
        t0 = ckv.estimate_T0(geom, pair, lam_lo, lam_hi,
                             margin=cfg["schedule.margin"],
                             seed=cfg["sampling.seed"])
    return ckv.Schedule(t0=t0)


def cmd_run(cfg, out, force, quiet):
    geom, pair = make_geometry(cfg), make_pair(cfg)
    base = _base_seed(cfg, cfg["seed.level"])
    lam_lo, lam_hi = shell_bounds(cfg, geom, base)
    report = ckv.verify_assumptions(geom, pair, lam_lo, lam_hi,
                                    seed=cfg["sampling.seed"])
    if not quiet:
        print(report.table())
    if not report.ok and not force:
        print("assumption check failed; rerun with --force to override",
              file=sys.stderr)
        return _status("assumptions")
    schedule = make_schedule(cfg, geom, pair, lam_lo, lam_hi)
    mesh, min_u, min_uperp = make_seed(cfg, geom, pair, base)
    if not quiet:
        print(f"seed: min u(0) = {min_u:.6g}, min uperp = {min_uperp:.6g}, "
              f"T0 = {schedule.t0:.6g}")
    every = cfg["output.frame_every"]

    def save_frame(k, t, m):
        surface.save_obj(m, os.path.join(out, f"frame_{k}.obj"), t=t, frame=k)

    def frame_cb(k, t, m):
        if every > 0 and k % every == 0:
            save_frame(k, t, m)

    if cfg["flow.backend"] == "lagrangian":
        res = flow.run(geom, pair, mesh, schedule, make_ctrl(cfg), frame_cb)
    else:
        state0 = flow.graph_state_from_mesh(mesh, geom)
        res = flow.run_graph(geom, pair, state0, schedule, make_ctrl(cfg),
                             frame_cb)
    if every > 0 and res.steps % every:  # the last loop top, off cadence
        save_frame(res.steps, res.t, res.mesh)
    res.trace.write_csv(os.path.join(out, "trace.csv"))
    verdict = diagnostics.isoperimetric_check(
        geom, res.mesh_initial, res.mesh, res.converged
    )
    verdict.write_txt(os.path.join(out, "verdict.txt"))
    if not quiet:
        print(f"{'converged' if res.converged else res.reason}: t = {res.t:.6g}, "
              f"steps = {res.steps}, "
              f"area {verdict.area_initial:.6g} -> {verdict.area_final:.6g}, "
              f"leaf area = {verdict.area_leaf_equal_volume:.6g}")
    if not res.converged:
        print(f"no convergence by t={res.t:.6g} ({res.reason})", file=sys.stderr)
        return _status("nonconv")
    return _status("ok")


def cmd_verify(cfg, out, force, quiet):
    geom, pair = make_geometry(cfg), make_pair(cfg)
    lam_lo, lam_hi = shell_bounds(cfg, geom)
    report = ckv.verify_assumptions(geom, pair, lam_lo, lam_hi,
                                    seed=cfg["sampling.seed"])
    print(report.table())
    return _status("ok" if report.ok else "assumptions")


def cmd_profile(cfg, out, force, quiet):
    geom = make_geometry(cfg)
    lam_lo, lam_hi = shell_bounds(cfg, geom)
    r_lo = float(geom.r_of_lambda(lam_lo))
    r_hi = float(geom.r_of_lambda(lam_hi))
    profile = diagnostics.leaf_profile(geom, r_lo, r_hi)
    path = os.path.join(out, "profile.csv")
    profile.write_csv(path)
    if not quiet:
        print(f"wrote {path}: {len(profile.r)} rows, "
              f"r in [{r_lo:.4g}, {r_hi:.4g}]")
    return _status("ok")


def cmd_seed(cfg, out, force, quiet):
    geom, pair = make_geometry(cfg), make_pair(cfg)
    mesh, min_u, min_uperp = make_seed(cfg, geom, pair)
    path = os.path.join(out, "seed.obj")
    surface.save_obj(mesh, path, t=0.0, frame=0)
    print(f"min_u0 = {min_u:.9g}")
    print(f"min_uperp = {min_uperp:.9g}")
    if not quiet:
        print(f"wrote {path}: {mesh.n_vertices} vertices, "
              f"{mesh.faces.shape[0]} faces")
    return _status("ok")


COMMANDS = {
    "run": cmd_run,
    "verify": cmd_verify,
    "profile": cmd_profile,
    "seed": cmd_seed,
}


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run file path")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--force", action="store_true",
                        help="continue past a failed assumption check")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress chatter on stdout")
    parser = argparse.ArgumentParser(
        prog="ckflow",
        description="conformally induced curvature flow on closed surfaces",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("run", parents=[common],
                   help="verify, schedule, integrate, export artifacts")
    sub.add_parser("verify", parents=[common],
                   help="check the structural conditions on the shell")
    sub.add_parser("profile", parents=[common],
                   help="tabulate leaf area/volume against radius")
    sub.add_parser("seed", parents=[common],
                   help="generate the seed surface and report support minima")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as err:
            raise ConfigError(
                f"cannot create output directory {args.out}: {err}") from err
        return COMMANDS[args.cmd](cfg, args.out, args.force, args.quiet)
    except CkflowError as err:
        trace = getattr(err, "trace", None)
        if trace is not None and len(trace):
            trace.write_csv(os.path.join(args.out, "trace.csv"))
        status, prefix = next(pair for cls, pair in EXITS if isinstance(err, cls))
        print(f"{prefix}: {err}", file=sys.stderr)
        return _status(status)


if __name__ == "__main__":
    sys.exit(main())
