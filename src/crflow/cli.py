"""Command-line interface: simulate, check, flatnorm, sweep.

Exit codes: 0 success, 1 internal error (or a failed check), 2
validation/configuration, 3 numerical failure, 4 I/O. Failures emit a
machine-readable JSON object on stdout. All outputs
embed the scenario content hash and the package version; reruns with the
same inputs are byte-for-byte identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

import crflow
from crflow.dynamics import (MAX_STEPS, PICARD_NODES, PICARD_WINDOW, WEIGHT_CLAMP_TOL,
                             Trajectory, integrate, picard_solve, picard_windows)
from crflow.errors import ConfigError, CrflowError, NumericalError, ValidationError
from crflow.measure import flat_distance
from crflow.scenario import (
    Scenario,
    build_scenario,
    check_sweep_path,
    load_config,
    load_measure_file,
    run,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# Rows of trajectory.csv formatted and written at once.
CSV_CHUNK = 256

# (class, sweep row status, exit code) of a failure; the first match wins
_FAILURES = (
    (NumericalError, "numerical-error", EXIT_NUMERICAL),
    (CrflowError, "validation-error", EXIT_VALIDATION),
    (json.JSONDecodeError, "validation-error", EXIT_VALIDATION),
    (OSError, "io-error", EXIT_IO),
    (Exception, "internal-error", EXIT_INTERNAL),
)


def _failure(exc: Exception) -> tuple[str, int]:
    return next((status, code) for cls, status, code in _FAILURES
                if isinstance(exc, cls))


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """A comment line with the scenario hash and version, the header, then
    t, S, mass and the weights of each recorded state, every value as
    _fmt17 writes it. A row is one `%` format, and rows are written
    CSV_CHUNK at a time, so no list of the whole table is ever held."""
    n = traj.space.size
    row = ",".join(["%.17g"] * (n + 3)) + "\n"
    mass = traj.mass()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# scenario_hash=%s version=%s\n" % (
            traj.metadata.get("scenario_hash", ""), traj.metadata.get("version", "")))
        fh.write(",".join(["t", "S", "mass"] + [f"w_{i}" for i in range(n)]) + "\n")
        for start in range(0, len(traj), CSV_CHUNK):
            part = slice(start, start + CSV_CHUNK)
            table = np.column_stack(
                (traj.times[part], traj.S[part], mass[part], traj.weights[part]))
            fh.write("".join(map(row.__mod__, map(tuple, table.tolist()))))


def write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _write_run(cfg: dict, out: Path) -> tuple:
    """Run a scenario document and write its directory, for `simulate` and
    each sweep run alike; returns the trajectory and its DiagnosticsReport."""
    sc = build_scenario(cfg)
    traj, report = run(sc)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "trajectory.csv", traj)
    endpoint = traj.endpoint()
    write_json(out / "diagnostics.json", {
        "scenario_hash": sc.hash,
        "version": crflow.__version__,
        "endpoint": {
            "t": float(traj.times[-1]),
            "S": endpoint.S,
            "weights": endpoint.mu.weights.tolist(),
            "mass": endpoint.total_mass(),
        },
        "diagnostics": dataclasses.asdict(report),
        "metadata": traj.metadata,
    })
    return traj, report


def cmd_simulate(args) -> int:
    _write_run(load_config(args.scenario), Path(args.out))
    return EXIT_OK


def run_checks(sc: Scenario, tol: float):
    """Invariant checks for one scenario: (name, ok, residual) triples.

    The scenario runs with fixed-step RK4 at its own dt, recording every step.
    Picard, which shares no integration code with RK4, is the reference for
    the last two rows. `picard_vs_rk` compares it with the run at the run's
    last grid time <= min(PICARD_WINDOW, t_end), at least one step in;
    `step_accuracy` compares the endpoints at t_end, from a second Picard
    solve on the whole horizon, keeping only its endpoint, when the first one
    ends short of it. That solve costs about ten iterations over
    PICARD_NODES nodes per unit of time, whatever dt; a horizon that needs
    more than MAX_STEPS nodes leaves the step_accuracy row out. A Picard
    solve whose substrate falls below zero raises a PositivityError, so
    neither row reads a reference the quadrature has not resolved.
    """
    control = dataclasses.replace(sc.control, method="rk4", record_every=1)
    traj, rep = run(dataclasses.replace(sc, control=control))
    results = []

    worst_neg = max(0.0, -rep.min_weight_observed, -rep.min_substrate_observed)
    results.append(("positivity", worst_neg <= WEIGHT_CLAMP_TOL, worst_neg))

    # None when dt does not divide t_end or there are fewer than 5 points
    mb = rep.mass_balance_max_residual
    if mb is not None:
        results.append(("mass_balance", mb <= tol, mb))

    over = rep.max_mass_observed - rep.mass_bound
    results.append(("dissipativity", over <= 1e-6, over))

    direct = traj.endpoint()
    n_steps = len(traj) - 1
    if n_steps >= 2:
        # The relay leaves the step grid: from the stored state at the split
        # it takes a partial step, then the rest of the horizon, which ends
        # with a remainder step; the law compares two step sequences.
        mid = traj.state(n_steps // 2)
        rest = sc.t_end - float(traj.times[n_steps // 2])
        part = 0.5 * min(control.dt, rest)
        shifted = integrate(mid, part, control, sc.rates, sc.kernel).endpoint()
        composed = integrate(
            shifted, rest - part, control, sc.rates, sc.kernel
        ).endpoint()
        res = abs(direct.S - composed.S) + flat_distance(direct.mu, composed.mu)
        results.append(("semiflow_law", res <= tol, res))

    first_window = min(PICARD_WINDOW, sc.t_end)
    k = min(n_steps, max(1, int(first_window / control.dt + 1e-9)))
    rk_end = traj.state(k)
    pic = picard_solve(sc.state0, float(traj.times[k]), control, sc.rates, sc.kernel)
    pic_end = pic.endpoint()
    # The whole-horizon solve starts from state0 too, not from the Picard
    # state at times[k], which quadrature error can put outside the cone.
    if k == n_steps:
        ref = pic_end
    elif picard_windows(sc.t_end) * PICARD_NODES <= MAX_STEPS:
        endpoint_only = dataclasses.replace(control, record_every=MAX_STEPS)
        ref = picard_solve(sc.state0, sc.t_end, endpoint_only, sc.rates,
                           sc.kernel).endpoint()
    else:
        ref = None
    if ref is not None:
        acc = abs(direct.S - ref.S) + flat_distance(direct.mu, ref.mu)
        results.append(("step_accuracy", acc <= tol, acc))

    gap = abs(rk_end.S - pic_end.S) + flat_distance(rk_end.mu, pic_end.mu)
    ratio = pic.metadata["contraction_ratio"]
    results.append(("picard_vs_rk", gap <= 1e-5 and ratio < 1.0, gap))

    return results


def cmd_check(args) -> int:
    if not 0.0 < args.tolerance < np.inf:
        raise ConfigError(f"--tolerance must be positive and finite, got {args.tolerance!r}")
    target = Path(args.scenario)
    if target.is_dir():
        paths = sorted(target.glob("*.json"))
        if not paths:
            print("0 scenarios")
            return EXIT_OK
    else:
        paths = [target]
    failures = 0
    report = {}
    for path in paths:
        sc = build_scenario(load_config(path))
        rows = run_checks(sc, tol=args.tolerance)
        report[str(path)] = [
            {"check": name, "ok": ok, "residual": res} for name, ok, res in rows
        ]
        for name, ok, res in rows:
            status = "PASS" if ok else "FAIL"
            print(f"{status} {path.name} {name} residual={res:.3e}")
            if not ok:
                failures += 1
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "check_report.json", {
            "version": crflow.__version__,
            "results": report,
        })
    return EXIT_OK if failures == 0 else 1


def cmd_flatnorm(args) -> int:
    mu = load_measure_file(args.measure_a)
    nu = load_measure_file(args.measure_b)
    if not mu.space.same_as(nu.space):
        raise ValidationError("measure files declare different spaces")
    print(f"{flat_distance(mu, nu):.12f}")
    return EXIT_OK


def _set_path(cfg: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = cfg
    for depth, key in enumerate(keys[:-1], 1):
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"sweep.{dotted}: {'.'.join(keys[:depth])} is not an object")
    node[keys[-1]] = value


def _csv_field(text: str) -> str:
    """Quote a summary cell per RFC 4180 if it holds a comma, quote or line break."""
    if any(ch in text for ch in ',"\r\n'):
        return '"%s"' % text.replace('"', '""')
    return text


def _sweep_child(task):
    index, cfg, out_dir = task
    row = {"run": index, "status": "ok", "error": "", "exit_code": EXIT_OK}
    try:
        traj, rep = _write_run(cfg, Path(out_dir))
        row.update({
            "endpoint_mass": traj.endpoint().total_mass(),
            "winner_atom": rep.winner_atom if rep.winner_atom is not None else "",
            "concentration_distance": (
                rep.concentration_distance
                if rep.concentration_distance is not None else ""
            ),
            "bound_margin": rep.mass_bound - rep.max_mass_observed,
        })
    except Exception as exc:     # a failed run fails its row, not the sweep
        status, code = _failure(exc)
        error = str(exc) if code != EXIT_INTERNAL else f"{type(exc).__name__}: {exc}"
        row.update({"status": status, "error": error, "exit_code": code})
    return row


def cmd_sweep(args) -> int:
    template = load_config(args.scenario)
    sweep_spec = template.pop("sweep", None)
    if not sweep_spec or not isinstance(sweep_spec, dict):
        raise ConfigError("sweep template needs a 'sweep' object")
    names = sorted(sweep_spec)
    for name in names:       # checked before any child runs
        if not isinstance(sweep_spec[name], list) or not sweep_spec[name]:
            raise ConfigError(f"sweep.{name}: expected a non-empty list of values")
        check_sweep_path(name)
    grids = [sweep_spec[name] for name in names]
    out = Path(args.out)
    tasks = []
    combos = list(itertools.product(*grids))
    for index, values in enumerate(combos):
        cfg = json.loads(json.dumps(template))
        for name, value in zip(names, values):
            _set_path(cfg, name, value)
        tasks.append((index, cfg, str(out / f"run_{index:04d}")))
    out.mkdir(parents=True, exist_ok=True)

    if args.jobs > 1:
        # a fork pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            rows = list(pool.map(_sweep_child, tasks))
    else:
        rows = [_sweep_child(task) for task in tasks]

    columns = (
        ["run"] + names
        + ["status", "endpoint_mass", "winner_atom",
           "concentration_distance", "bound_margin", "error"]
    )
    lines = [",".join(columns)]
    for row, values in zip(rows, combos):
        cells = [str(row["run"])]
        cells += [_fmt17(v) if isinstance(v, float) else _csv_field(str(v))
                  for v in values]
        cells.append(row["status"])
        for key in ("endpoint_mass", "winner_atom", "concentration_distance",
                    "bound_margin"):
            v = row.get(key, "")
            cells.append(_fmt17(v) if isinstance(v, float) else str(v))
        cells.append('"%s"' % row.get("error", "").replace('"', '""'))
        lines.append(",".join(cells))
    (out / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    worst = max((row["exit_code"] for row in rows), default=EXIT_OK)
    return worst


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused after."""
    parser = argparse.ArgumentParser(
        prog="crflow",
        description="Consumer-resource dynamics on discrete measures",
    )
    parser.add_argument("--version", action="version", version=crflow.__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario and write outputs")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("check", help="run the invariant suite on scenarios")
    p.add_argument("--scenario", required=True, help="scenario file or directory")
    p.add_argument("--out", default=None)
    p.add_argument("--tolerance", type=float, default=1e-6)

    p = sub.add_parser("flatnorm", help="flat distance between two measure files")
    p.add_argument("measure_a")
    p.add_argument("measure_b")

    p = sub.add_parser("sweep", help="run a parameter sweep from a template")
    p.add_argument("--scenario", required=True, help="template with a 'sweep' section")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)

    return parser


def _emit_error(kind: str, message: str, code: int) -> None:
    print(json.dumps({
        "error": {"type": kind, "message": message, "exit_code": code}
    }, sort_keys=True))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call, so a wrapper installed on cmd_<name> runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except Exception as exc:     # every failure is one JSON error, never a traceback
        _, code = _failure(exc)
        _emit_error("IOError" if code == EXIT_IO else type(exc).__name__, str(exc), code)
        return code


if __name__ == "__main__":
    sys.exit(main())
