"""Command line front end.

Subcommands cover the full pipeline: synthesize a feedback law from a
JSON config, simulate the closed loop (single start or grid), export the
switching curve, check illumination of a region, run the output-feedback
observer loop, and render any produced CSV as an SVG plot.

Exit codes: 0 success, 1 invalid input (bad flags, bad config, malformed
expressions), 2 numerical failure (divergence, coverage gap, failed
synthesis check).  Errors are a single machine-parsable stderr line
``error: <kind>: <detail>``.  Outputs are deterministic: rerunning a
subcommand with the same config writes byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys as _sys
from typing import Sequence

import numpy as np

from .exprs import ExprDomainError, ExprError
from .manifold import (LagrangianManifold, NotCoveredError, build_manifold,
                       illumination_grid, switching_curve, write_table)
from .observer import (ObserverGains, export_error_log, gain_inequalities,
                       is_manipulator, select_gains, simulate_output_feedback)
from .simulate import (BlowupError, export_trajectory_csv, simulate_closed_loop,
                       simulate_grid, stabilization_verdict)
from .synthesis import (DecreaseViolation, FeedbackLaw, assemble_feedback,
                        export_law_csv, reference_switching_curve)
from .systems import ControlSet, ControlSystem, LyapunovSpec, SystemError


class ConfigError(ValueError):
    pass


# ------------------------------------------------------------------- config

# json.load gives these exact types; bool is not a number here
_NUMBER = ("a number", lambda v: type(v) in (int, float))
_COUNT = ("a positive integer", lambda v: type(v) is int and v > 0)
# nan is no positive number either
_POSITIVE = ("a positive number",
             lambda v: type(v) in (int, float) and v > 0)
_TEXT = ("a string", lambda v: type(v) is str)


def _list_of(what: str, check: tuple) -> tuple:
    return what, lambda v: type(v) is list and all(map(check[1], v))


_TEXTS = _list_of("a list of strings", _TEXT)
_NUMBERS = _list_of("a list of numbers", _NUMBER)
_COLUMNS = _list_of("a list of lists of strings", _TEXTS)
# an unset _REQUIRED key is an error and an unset _OPTIONAL key stays
# absent; a callable default is computed from the block
_REQUIRED, _OPTIONAL = object(), object()


def _block(**table) -> tuple:
    """A nested object, {} when unset."""
    return (lambda block: {}), table


# key -> (default, (description, value check)), or a nested _block
_CONFIG = dict(
    system=_block(name=("", _TEXT), n=(_REQUIRED, _COUNT),
                  drift=(_REQUIRED, _TEXTS), columns=(_REQUIRED, _COLUMNS)),
    control=_block(k=(1.0, _NUMBER), C=(1.0, _NUMBER),
                   lower=(lambda block: [-block["k"]], _NUMBERS),
                   upper=(lambda block: [block["k"]], _NUMBERS)),
    lyapunov=_block(V=(_REQUIRED, _TEXT), epsilon=(0.5, _NUMBER)),
    inner=_block(w=(lambda block: [], _TEXTS)),
    manifold=_block(N=(256, _COUNT), tau_max=(10.0, _NUMBER),
                    budget=(1e6, _NUMBER), query_radius=(None, _NUMBER)),
    simulation=_block(
        t_max=(100.0, _POSITIVE), x0=(_OPTIONAL, _NUMBERS),
        grid=(_OPTIONAL, dict(lower=(_REQUIRED, _NUMBERS),
                              upper=(_REQUIRED, _NUMBERS),
                              res=(_REQUIRED, _COUNT))),
        record_dt=(None, _POSITIVE), convergence_radius=(1e-2, _POSITIVE),
        dwell=(1.0, _POSITIVE), rel_tol=(1e-9, _POSITIVE),
        abs_tol=(1e-12, _POSITIVE), blowup=(1e6, _POSITIVE)),
    observer=_block(
        L=(1.0, _NUMBER), margin=(0.1, _NUMBER), x0=(_OPTIONAL, _NUMBERS),
        z0=(_OPTIONAL, _NUMBERS), t_max=(100.0, _POSITIVE),
        record_dt=(0.01, _POSITIVE), delta=(_OPTIONAL, _NUMBER),
        beta1=(_OPTIONAL, _NUMBER), beta2=(_OPTIONAL, _NUMBER)),
)


def _complete(block, table: dict, path: str) -> None:
    """Check block against table and fill in its defaults, in place.

    A value may be null where the default is None.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{path} must be an object")
    for key in block:
        if key not in table:
            raise ConfigError(f"unknown key {path}.{key}")
    for key, (default, check) in table.items():
        where = f"{path}.{key}"
        if key not in block:
            if default is _REQUIRED:
                raise ConfigError(f"{where} is required")
            if default is _OPTIONAL:
                continue
            block[key] = default(block) if callable(default) else default
        if isinstance(check, dict):
            _complete(block[key], check, where)
        elif not (block[key] is None and default is None
                  or check[1](block[key])):
            raise ConfigError(f"{where} must be {check[0]}")


def load_config(path: str) -> dict:
    """Parse, validate and complete a run configuration.

    Unknown keys anywhere and values of the wrong type are rejected;
    absent optional keys are filled with their defaults so the echoed
    config is self-contained.
    """
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    _complete(cfg, _CONFIG, "config")
    if len(cfg["system"]["columns"]) != 1:
        raise ConfigError("config.system.columns must hold one column: "
                          "the supported form is control-affine, single-input, "
                          "box-controlled")
    return cfg


def _echo(cfg: dict) -> None:
    print("effective-config: " + json.dumps(cfg, sort_keys=True))


# ---------------------------------------------------------------- assembly

def _pipeline(args, *, law: bool = True, manipulator: bool = False
              ) -> tuple[dict, ControlSystem, LagrangianManifold,
                         FeedbackLaw | None]:
    """Load and echo the config, then build the system, the Lyapunov
    function, the manifold and, with `law`, the feedback law.

    With `manipulator`, a system outside the manipulator form is rejected,
    and with `law`, a missing inner law, before the manifold is built.
    """
    cfg = load_config(args.config)
    _echo(cfg)
    system, control = cfg["system"], cfg["control"]
    sys_ = ControlSystem(n=system["n"],
                         omega=ControlSet.box(control["lower"],
                                              control["upper"]),
                         name=system["name"], drift=system["drift"],
                         columns=system["columns"])
    if manipulator and not is_manipulator(sys_):
        raise ConfigError("observer needs the manipulator form "
                          "(drift x2, f; single unit column)")
    inner = cfg["inner"]["w"]
    if law and not inner:
        raise ConfigError("config.inner.w is required for feedback assembly")
    lyap = LyapunovSpec(cfg["lyapunov"]["V"], system["n"],
                        epsilon=cfg["lyapunov"]["epsilon"])
    block = cfg["manifold"]
    man = build_manifold(sys_, lyap, block["N"], block["tau_max"],
                         budget=block["budget"],
                         query_radius=block["query_radius"])
    if not law:
        return cfg, sys_, man, None
    return cfg, sys_, man, assemble_feedback(sys_, lyap, man, inner,
                                             k=control["k"], C=control["C"])


def _sim_options(cfg: dict) -> dict:
    sim = cfg["simulation"]
    return dict(record_dt=sim["record_dt"],
                convergence_radius=sim["convergence_radius"],
                dwell=sim["dwell"], rel_tol=sim["rel_tol"],
                abs_tol=sim["abs_tol"], blowup=sim["blowup"])


# ------------------------------------------------------------- subcommands

def _cmd_synthesize(args) -> int:
    _, _, man, law = _pipeline(args)
    switches = sum(1 for b in man.branches for e in b.events
                   if e.kind == "switch")
    print(f"manifold: branches={len(man.branches)} "
          f"samples={man.n_samples} switches={switches} dropped={man.dropped}")
    print(f"law: epsilon={law.epsilon:g} k={law.k:g} C={law.C:g} "
          f"boundary-margin={law.boundary_margin:.6g}")
    export_law_csv(law, args.out)
    print(f"wrote {args.out}")
    if args.manifold_out:
        _copy_sample_table(args.out, args.manifold_out)
        print(f"wrote {args.manifold_out}")
    return 0


def _copy_sample_table(law_path: str, out_path: str) -> None:
    """Write the manifold CSV as the bytes of a law CSV from the header
    row of its sample table on, which are what export_manifold_csv
    writes."""
    with open(law_path, "rb") as src, open(out_path, "wb") as dst:
        line = src.readline()
        while line and not line.startswith(b"psi,"):
            line = src.readline()
        dst.write(line)
        shutil.copyfileobj(src, dst)


def _cmd_simulate(args) -> int:
    cfg, sys_, _, law = _pipeline(args)
    sim = cfg["simulation"]
    opts = _sim_options(cfg)
    if args.grid:
        if "grid" not in sim:
            raise ConfigError("config.simulation.grid is required with --grid")
        g = sim["grid"]
        report = simulate_grid(law, g["lower"], g["upper"], g["res"],
                               sim["t_max"], **opts)
        n_conv = sum(1 for v in report.verdicts if v.converged)
        print(f"grid: points={len(report.verdicts)} converged={n_conv} "
              f"max-abs-u={report.max_abs_u:.6g} "
              f"v-step-increase-max={report.v_inner_increase_max:.3e} "
              f"latest-convergence={report.latest_convergence:.6g}")
        if args.out:
            verdicts = report.verdicts
            with open(args.out, "w", newline="") as fh:
                write_table(
                    fh, [f"x{i+1}" for i in range(sys_.n)]
                    + ["converged", "t_converged", "max_abs_u"],
                    [*report.points.T,
                     [int(v.converged) for v in verdicts],
                     ["" if v.t_converged is None
                      else repr(float(v.t_converged)) for v in verdicts],
                     [v.max_abs_u for v in verdicts]])
            print(f"wrote {args.out}")
        if not report.all_converged:
            left = [tuple(float(v) for v in p) for p, v
                    in zip(report.points, report.verdicts) if not v.converged]
            raise RuntimeError(f"{len(left)} of {len(report.verdicts)} starts "
                               f"did not converge by t_max={sim['t_max']:g}; "
                               f"first at x0={left[0]}")
        return 0
    x0 = args.x0 if args.x0 is not None else sim.get("x0")
    if x0 is None:
        raise ConfigError("config.simulation.x0 (or --x0) is required")
    traj = simulate_closed_loop(law, x0, sim["t_max"], **opts)
    verdict = stabilization_verdict(law, traj)
    print(f"trajectory: samples={len(traj.t)} events={len(traj.events)} "
          f"converged={str(verdict.converged).lower()} "
          f"t-converged={'-' if verdict.t_converged is None else format(verdict.t_converged, '.6g')} "
          f"final-norm={verdict.final_norm:.3e} max-abs-u={verdict.max_abs_u:.6g}")
    if args.out:
        export_trajectory_csv(traj, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_switching_curve(args) -> int:
    _, sys_, man, _ = _pipeline(args, law=False)
    points = switching_curve(man)
    families = sorted({p.family for p in points})
    print(f"switching-curve: points={len(points)} families={len(families)}")
    if args.compare:
        # pointwise against the planar benchmark curve at the same seed
        # angle; only angles inside the curve's two open arcs compare
        devs = []
        for p in points:
            try:
                (ref,) = reference_switching_curve([p.psi])
            except ValueError:
                continue
            devs.append(math.dist(ref, p.x))
        if devs:
            print(f"reference-comparison: points={len(devs)} "
                  f"max-deviation={max(devs):.6e}")
        else:
            print("reference-comparison: points=0 max-deviation=nan")
    with open(args.out, "w", newline="") as fh:
        write_table(fh, ["family", "psi", "tau"]
                    + [f"x{i+1}" for i in range(sys_.n)],
                    [[p.family for p in points], [p.psi for p in points],
                     [p.tau for p in points],
                     *([p.x[i] for p in points] for i in range(sys_.n))])
    print(f"wrote {args.out}")
    return 0


def _cmd_illuminate(args) -> int:
    cfg, sys_, man, _ = _pipeline(args, law=False)
    sim = cfg["simulation"]
    if "grid" not in sim:
        raise ConfigError("config.simulation.grid is required for illuminate")
    g = sim["grid"]
    report = illumination_grid(man, g["lower"], g["upper"], g["res"])
    print(f"illumination: inner={report.inner} "
          f"illuminated={report.illuminated} dark={report.dark}")
    with open(args.out, "w", newline="") as fh:
        write_table(fh, [f"x{i+1}" for i in range(sys_.n)] + ["status"],
                    [*report.points.T, report.status])
    print(f"wrote {args.out}")
    return 0


def _cmd_observer(args) -> int:
    cfg, sys_, _, law = _pipeline(args, manipulator=True)
    obs = cfg["observer"]
    if "x0" not in obs or "z0" not in obs:
        raise ConfigError("config.observer.x0 and .z0 are required")
    explicit = [key for key in ("delta", "beta1", "beta2") if key in obs]
    if not explicit:
        gains = select_gains(obs["L"], obs["margin"])
    elif len(explicit) < 3:
        raise ConfigError("config.observer.delta, .beta1 and .beta2 are "
                          "set all together or not at all")
    else:
        gains = ObserverGains(*(obs[key] for key in explicit), obs["L"])
        v1, v2 = gain_inequalities(gains)
        if min(v1, v2) < obs["margin"]:
            raise ConfigError(f"observer gains have decay margins {v1:.4g} "
                              f"and {v2:.4g}, below margin {obs['margin']:g}")
    print(f"gains: delta={gains.delta:g} beta1={gains.beta1:g} "
          f"beta2={gains.beta2:g} L={gains.L:g}")
    result = simulate_output_feedback(sys_, law, gains, obs["x0"],
                                      obs["z0"], obs["t_max"],
                                      record_dt=obs["record_dt"])
    final_e = float(np.linalg.norm(result.e[-1]))
    final_x = float(np.linalg.norm(result.x[-1]))
    print(f"observer: samples={len(result.t)} "
          f"converged={str(result.converged).lower()} "
          f"final-error={final_e:.3e} final-norm={final_x:.3e} M={result.M:.6g}")
    export_error_log(result, args.out)
    print(f"wrote {args.out}")
    return 0


# ------------------------------------------------------------------- plots

def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    import csv as _csv
    with open(path, newline="") as fh:
        rows = [r for r in _csv.reader(fh)
                if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise ConfigError(f"{path} holds no table")
    return rows[0], rows[1:]


def _svg(polylines, scatters, out: str, width=640, height=640,
         margin=60) -> None:
    """Tiny SVG renderer: polylines + circles over framed axes."""
    pts = [p for poly, _ in polylines for p in poly]
    pts += [p for pscat, _, _ in scatters for p in pscat]
    arr = np.asarray(pts, dtype=float)
    if arr.size == 0:
        raise ConfigError("nothing to plot")
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    span = np.where(hi - lo < 1e-12, 1.0, hi - lo)
    lo = lo - 0.05 * span
    hi = hi + 0.05 * span
    span = hi - lo

    def map_pt(p):
        sx = margin + (p[0] - lo[0]) / span[0] * (width - 2 * margin)
        sy = height - margin - (p[1] - lo[1]) / span[1] * (height - 2 * margin)
        return sx, sy

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<rect x="{margin}" y="{margin}" width="{width-2*margin}" '
             f'height="{height-2*margin}" fill="none" stroke="black"/>']
    for i in range(5):
        fx = lo[0] + span[0] * i / 4
        fy = lo[1] + span[1] * i / 4
        sx, _ = map_pt((fx, lo[1]))
        _, sy = map_pt((lo[0], fy))
        parts.append(f'<line x1="{sx:.1f}" y1="{height-margin}" x2="{sx:.1f}" '
                     f'y2="{height-margin+5}" stroke="black"/>')
        parts.append(f'<text x="{sx:.1f}" y="{height-margin+18}" '
                     f'font-size="10" text-anchor="middle">{fx:.3g}</text>')
        parts.append(f'<line x1="{margin-5}" y1="{sy:.1f}" x2="{margin}" '
                     f'y2="{sy:.1f}" stroke="black"/>')
        parts.append(f'<text x="{margin-8}" y="{sy+3:.1f}" font-size="10" '
                     f'text-anchor="end">{fy:.3g}</text>')
    for poly, stroke in polylines:
        if len(poly) < 2:
            continue
        coords = " ".join(f"{sx:.2f},{sy:.2f}"
                          for sx, sy in (map_pt(p) for p in poly))
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{stroke}" stroke-width="1.2"/>')
    for pscat, fill, radius in scatters:
        for p in pscat:
            sx, sy = map_pt(p)
            parts.append(f'<circle cx="{sx:.2f}" cy="{sy:.2f}" r="{radius}" '
                         f'fill="{fill}"/>')
    parts.append("</svg>")
    with open(out, "w") as fh:
        fh.write("\n".join(parts) + "\n")


_STROKES = ("steelblue", "firebrick", "seagreen", "darkorange", "purple",
            "teal", "goldenrod", "crimson")


def _cmd_plot(args) -> int:
    header, rows = _read_csv(args.infile)
    col = {name: i for i, name in enumerate(header)}

    def need(*names):
        for name in names:
            if name not in col:
                raise ConfigError(f"column {name} missing in {args.infile}")

    polylines, scatters = [], []
    if args.kind == "manifold":
        need("psi", "x1", "x2")
        groups: list[list] = []
        last_psi = None
        for r in rows:
            if r[col["psi"]] != last_psi:
                groups.append([])
                last_psi = r[col["psi"]]
            groups[-1].append((float(r[col["x1"]]), float(r[col["x2"]])))
        for i, g in enumerate(groups):
            polylines.append((g, _STROKES[i % len(_STROKES)]))
        if "event_flag" in col:
            marks = [(float(r[col["x1"]]), float(r[col["x2"]]))
                     for r in rows if r[col["event_flag"]] == "1"]
            scatters.append((marks, "black", 2.0))
    elif args.kind == "trajectory":
        need("t", "x1")
        if "x2" in col:
            poly = [(float(r[col["x1"]]), float(r[col["x2"]])) for r in rows]
        else:
            poly = [(float(r[col["t"]]), float(r[col["x1"]])) for r in rows]
        polylines.append((poly, _STROKES[0]))
        if "event_flag" in col:
            marks = [poly[i] for i, r in enumerate(rows)
                     if r[col["event_flag"]] != "0"]
            scatters.append((marks, "firebrick", 2.5))
    elif args.kind == "curve":
        need("family", "x1", "x2")
        families = sorted({r[col["family"]] for r in rows}, key=int)
        for i, fam in enumerate(families):
            poly = [(float(r[col["x1"]]), float(r[col["x2"]]))
                    for r in rows if r[col["family"]] == fam]
            polylines.append((poly, _STROKES[i % len(_STROKES)]))
    elif args.kind == "illumination":
        need("x1", "x2", "status")
        palette = {"inner": "lightgray", "illuminated": "goldenrod",
                   "dark": "black"}
        for status, fill in palette.items():
            pts = [(float(r[col["x1"]]), float(r[col["x2"]]))
                   for r in rows if r[col["status"]] == status]
            if pts:
                scatters.append((pts, fill, 3.0))
    else:
        raise ConfigError(f"unknown plot kind {args.kind}")
    _svg(polylines, scatters, args.out)
    print(f"wrote {args.out}")
    return 0


# -------------------------------------------------------------------- main

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmpstab",
        description="Synthesize and test piecewise-smooth stabilizing "
                    "feedback from a Lagrangian manifold.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="build manifold and feedback law")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="law CSV path")
    p.add_argument("--manifold-out", default=None)
    p.set_defaults(fn=_cmd_synthesize)

    p = sub.add_parser("simulate", help="closed-loop simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="trajectory/report CSV path")
    p.add_argument("--x0", type=_parse_point, default=None,
                   help="comma-separated start state, overrides config")
    p.add_argument("--grid", action="store_true",
                   help="sweep the configured grid of starts")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("switching-curve", help="export switch events")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--compare", action="store_true",
                   help="print the max deviation from the planar benchmark "
                        "reference curve")
    p.set_defaults(fn=_cmd_switching_curve)

    p = sub.add_parser("illuminate", help="coverage status over a grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_illuminate)

    p = sub.add_parser("observer", help="output-feedback loop with observer")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="error log CSV path")
    p.set_defaults(fn=_cmd_observer)

    p = sub.add_parser("plot", help="render a produced CSV as SVG")
    p.add_argument("--kind", required=True,
                   choices=["manifold", "trajectory", "curve", "illumination"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_plot)
    return parser


def _parse_point(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors; that slot is reserved for
        # numerical failures here
        return 1 if err.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (BlowupError, NotCoveredError, DecreaseViolation, ExprDomainError,
            FloatingPointError, RuntimeError) as err:
        print(f"error: numerical: {err}", file=_sys.stderr)
        return 2
    except (ConfigError, ExprError, SystemError, ValueError) as err:
        print(f"error: invalid-input: {err}", file=_sys.stderr)
        return 1
    except OSError as err:
        print(f"error: io: {err}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
