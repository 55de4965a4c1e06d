"""Seeded input generators for the four benchmark workloads.

Every workload is a fixed menu of slots. A slot fixes the shape of one item
(atom count, kernel, rate families, method, horizon); its numeric values come
from a base draw that is the same for every seed, multiplied by a factor in
[1 - JITTER, 1 + JITTER] drawn from the run's seed. Items run in slot order.

Why not draw every value freshly from the seed: the pivot count of the
in-package simplex varies up to tenfold between independent random measures
of one size (70 to 880 pivots at 30 atoms), so throughput on `flatnorm`, and
the `concentration` tail on `simulate`, would be a property of the seed
rather than of the code, and even a one per cent jitter moves the largest
items by 15 per cent. A 0.1 per cent jitter leaves pivot counts, adaptive step
counts and Picard iterations at those of the base draw, while every output
byte still depends on the seed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

JITTER = 1e-3
BASE_SEED = 20141201
WORKLOADS = ("simulate", "check", "sweep", "flatnorm")

# Percentile reported as item_tail_ms. Fixed per workload, so that a faster
# program (more items per run) is compared at the same percentile; each is
# the highest of 50/75/90 that leaves at least ten items beyond it at the
# baseline item count, and none falls on a boundary between two slots.
TAIL_PERCENTILE = {"simulate": 75.0, "check": 75.0, "sweep": 50.0, "flatnorm": 75.0}

SWEEP_JOBS = 2

# (atoms, kernel, uptake, mortality, method, t_end); rk4 and adaptive use
# dt = 0.01 and record_every = 1.
SIMULATE_SLOTS = (
    (2, "pure", "monod", "constant", "rk4", 10.0),
    (2, "gauss", "linear", "decreasing", "rk4", 8.0),
    (3, "gauss", "monod", "constant", "rk4", 6.0),
    (3, "pure", "monod", "decreasing", "adaptive", 10.0),
    (4, "pure", "linear", "constant", "rk4", 12.0),
    (4, "gauss", "monod", "decreasing", "rk4", 5.0),
    (5, "gauss", "monod", "constant", "rk4", 8.0),
    (6, "pure", "monod", "decreasing", "picard", 4.0),
    (6, "gauss", "linear", "constant", "rk4", 10.0),
    (8, "gauss", "monod", "constant", "rk4", 6.0),
    (8, "pure", "monod", "decreasing", "rk4", 12.0),
    (10, "gauss", "linear", "decreasing", "rk4", 8.0),
    (10, "pure", "monod", "constant", "rk4", 5.0),
    (12, "gauss", "monod", "decreasing", "adaptive", 8.0),
    (12, "pure", "linear", "constant", "rk4", 10.0),
    (14, "gauss", "monod", "constant", "rk4", 6.0),
    (16, "pure", "monod", "decreasing", "rk4", 8.0),
    (16, "gauss", "linear", "constant", "picard", 3.0),
    (18, "gauss", "monod", "decreasing", "rk4", 10.0),
    (20, "pure", "linear", "decreasing", "rk4", 6.0),
    (20, "gauss", "monod", "constant", "rk4", 8.0),
    (24, "gauss", "monod", "decreasing", "rk4", 5.0),
    (24, "pure", "monod", "constant", "rk4", 10.0),
    (28, "gauss", "linear", "constant", "rk4", 6.0),
    (30, "gauss", "monod", "decreasing", "rk4", 8.0),
)

# (shape, atoms): shapes follow scenarios/desk_chemostat.json,
# scenarios/washout.json and scenarios/sweep_inflow.json.
CHECK_SLOTS = (
    ("chemostat", 3), ("chemostat", 4), ("chemostat", 5), ("chemostat", 6),
    ("chemostat", 8), ("washout", 2), ("washout", 3), ("washout", 4),
    ("competition", 2), ("competition", 2), ("competition", 3),
    ("competition", 3), ("chemostat", 3), ("chemostat", 7), ("washout", 2),
)

# (dimension, atoms per axis, shape)
FLATNORM_SLOTS = (
    (1, 8, "full"), (1, 9, "sparse"), (1, 10, "bump"), (1, 11, "full"),
    (1, 12, "sparse"), (1, 13, "bump"), (1, 14, "full"), (1, 16, "sparse"),
    (1, 18, "bump"), (1, 20, "full"), (1, 22, "sparse"), (1, 24, "bump"),
    (1, 27, "full"), (1, 30, "sparse"), (1, 34, "full"), (1, 40, "bump"),
    (2, 3, "full"), (2, 3, "sparse"), (2, 3, "bump"), (2, 4, "full"),
    (2, 4, "sparse"), (2, 4, "bump"), (2, 5, "full"), (2, 5, "sparse"),
    (2, 6, "bump"),
)


@dataclass
class Item:
    """One CLI invocation: argv for crflow.cli.main plus what the gate needs."""

    key: str
    argv: list
    out: Path | None = None          # output directory the command writes
    runs: int = 1                    # items it counts for (sweep runs)
    oracle: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    items: list
    scenario_files: list             # load_config + build_scenario at setup
    measure_files: list              # load_measure_file at setup


class _Draw:
    """Base value from a fixed stream, times a seed-dependent jitter."""

    def __init__(self, seed: int, key: tuple):
        self.base = np.random.default_rng([BASE_SEED, *key])
        self.jit = np.random.default_rng([seed, *key])

    def __call__(self, lo, hi, size=None):
        value = self.base.uniform(lo, hi, size)
        value = value * (1.0 + JITTER * self.jit.uniform(-1.0, 1.0, size))
        return value.tolist() if size is not None else float(value)


def _grid(dim: int, per_axis: int) -> dict:
    return {"grid": {"dim": dim, "bounds": [[0.0, 1.0]] * dim,
                     "counts": [per_axis] * dim}}


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def _rates(d: _Draw, n: int, uptake: str, mortality: str) -> dict:
    if uptake == "monod":
        up = {"family": "monod", "b": d(0.8, 1.6, n), "a": d(0.5, 1.5)}
    else:
        up = {"family": "linear", "b": d(0.5, 1.2, n)}
    if mortality == "constant":
        mo = {"family": "constant", "d0": d(0.15, 0.4)}
    else:
        mo = {"family": "decreasing", "d0": d(0.1, 0.3), "c": d(0.05, 0.3)}
    return {"inflow": d(0.5, 2.0), "dilution": d(0.5, 1.5),
            "uptake": up, "mortality": mo}


def simulate_scenario(seed, slot) -> dict:
    n, kernel, uptake, mortality, method, t_end = SIMULATE_SLOTS[slot]
    d = _Draw(seed, (0, slot))
    control = {"method": method, "t_end": t_end, "record_every": 1}
    if method == "picard":
        # The default contraction weight (~250 here) discounts all but the
        # start of each window, so iteration stops early and endpoints miss
        # DOP853 by up to 0.3; at lambda = 10 they agree to 1e-7.
        control["lambda"] = 10.0
    else:
        control["dt"] = 0.01
    if method == "adaptive":
        control["tolerance"] = 1e-8
    return {
        "space": _grid(1, n),
        "kernel": ({"family": "gaussian", "width": d(0.1, 0.3)}
                   if kernel == "gauss" else {"family": "pure_selection"}),
        "rates": _rates(d, n, uptake, mortality),
        "initial": {"S": d(0.2, 1.5), "weights": d(0.05, 0.5, n)},
        "control": control,
        "truncation": None,
        "seed": 0,
    }


def check_scenario(seed, slot) -> dict:
    shape, n = CHECK_SLOTS[slot]
    d = _Draw(seed, (1, slot))
    if shape == "chemostat":
        return {
            "space": _grid(1, n),
            "kernel": {"family": "gaussian", "width": d(0.15, 0.35)},
            "rates": {
                "inflow": d(0.8, 1.2), "dilution": d(0.8, 1.2),
                "uptake": {"family": "monod", "b": {"affine": {
                    "const": d(0.6, 1.0), "slope": [d(0.2, 0.6)]}},
                    "a": d(0.7, 1.3)},
                "mortality": {"family": "constant", "d0": d(0.2, 0.4)},
            },
            "initial": {"S": d(0.5, 1.5), "weights": [d(0.1, 0.4)] * n},
            "control": {"method": "rk4", "dt": 0.001, "t_end": 0.5},
            "truncation": None,
            "seed": 0,
        }
    if shape == "washout":
        return {
            "space": _grid(1, n),
            "kernel": {"family": "pure_selection"},
            "rates": {
                "inflow": d(0.8, 1.2), "dilution": d(0.8, 1.2),
                "uptake": {"family": "monod", "b": d(0.8, 1.2), "a": d(0.8, 1.2)},
                "mortality": {"family": "constant", "d0": d(0.2, 0.4)},
            },
            "initial": {"S": 0.0, "weights": [0.0] * n},
            "control": {"method": "rk4", "dt": 0.001, "t_end": 0.5},
            "truncation": None,
            "seed": 0,
        }
    return {
        "space": _grid(1, n),
        "kernel": {"family": "pure_selection"},
        "rates": {
            "inflow": d(0.8, 1.2), "dilution": d(0.8, 1.2),
            "uptake": {"family": "monod", "b": d(1.0, 1.3, n), "a": d(1.0, 1.5, n)},
            "mortality": {"family": "constant", "d0": d(0.2, 0.4)},
        },
        "initial": {"S": d(0.5, 1.5), "weights": d(0.2, 0.6, n)},
        "control": {"method": "rk4", "dt": 0.002, "t_end": 1.0},
        "truncation": 12.0,
        "seed": 0,
    }


def sweep_template(seed) -> dict:
    d = _Draw(seed, (2, 0))
    n = 3
    return {
        "space": _grid(1, n),
        "kernel": {"family": "gaussian", "width": d(0.2, 0.4)},
        "rates": _rates(d, n, "monod", "constant"),
        "initial": {"S": d(0.5, 1.5), "weights": d(0.2, 0.5, n)},
        "control": {"method": "rk4", "dt": 0.01, "t_end": 15.0, "record_every": 1},
        "truncation": None,
        "seed": 0,
        # 3 x 2 = 3 * SWEEP_JOBS combinations
        "sweep": {"rates.inflow": d(0.5, 2.0, 3), "rates.dilution": d(0.6, 1.4, 2)},
    }


def sweep_configs(template: dict) -> list:
    """The per-run configurations, in the order `crflow sweep` numbers them."""
    base = {k: v for k, v in template.items() if k != "sweep"}
    names = sorted(template["sweep"])
    configs = []
    for values in itertools.product(*(template["sweep"][k] for k in names)):
        cfg = json.loads(json.dumps(base))
        for name, value in zip(names, values):
            section, key = name.split(".")
            cfg[section][key] = value
        configs.append(cfg)
    return configs


def measure_pair(seed, slot):
    dim, per_axis, shape = FLATNORM_SLOTS[slot]
    d = _Draw(seed, (3, slot))
    n = per_axis ** dim
    weights = []
    for _ in range(2):
        if shape == "full":
            w = d(0.0, 1.0, n)
        elif shape == "sparse":
            k = max(2, n // 4)
            idx = d.base.choice(n, size=k, replace=False)
            w = [0.0] * n
            for i, v in zip(idx, d(0.2, 1.0, k)):
                w[int(i)] = v
        else:
            centre = d.base.uniform(0.2, 0.8, dim)
            width = d.base.uniform(0.1, 0.25)
            axes = np.meshgrid(*[np.linspace(0.0, 1.0, per_axis)] * dim, indexing="ij")
            r2 = sum((ax.reshape(-1) - c) ** 2 for ax, c in zip(axes, centre))
            w = (np.exp(-r2 / (2.0 * width ** 2)) * np.asarray(d(0.5, 1.5, n))).tolist()
        weights.append(w)
    return _grid(dim, per_axis), weights


def generate(workload: str, seed: int, work: Path, tiny: bool = False) -> Workload:
    """Write the inputs of one workload under `work` and list its items.

    tiny keeps only the three smallest slots (two combinations for sweep),
    for the smoke mode.
    """
    work.mkdir(parents=True, exist_ok=True)
    scenario_files, measure_files, items = [], [], []
    if workload == "simulate":
        slots = range(3) if tiny else range(len(SIMULATE_SLOTS))
        for slot in slots:
            cfg = simulate_scenario(seed, slot)
            path = _write(work / f"sim_{slot:02d}.json", cfg)
            scenario_files.append(path)
            out = work / f"out_{slot:02d}"
            items.append(Item(f"simulate-{slot:02d}",
                              ["simulate", "--scenario", str(path), "--out", str(out)],
                              out=out, oracle={"cfgs": [cfg]}))
    elif workload == "check":
        slots = (0, 5, 8) if tiny else range(len(CHECK_SLOTS))
        for slot in slots:
            cfg = check_scenario(seed, slot)
            path = _write(work / f"check_{slot:02d}.json", cfg)
            scenario_files.append(path)
            items.append(Item(f"check-{slot:02d}", ["check", "--scenario", str(path)]))
    elif workload == "sweep":
        template = sweep_template(seed)
        if tiny:
            template["sweep"]["rates.inflow"] = template["sweep"]["rates.inflow"][:1]
            template["control"]["t_end"] = 1.0
        path = _write(work / "sweep_template.json", template)
        scenario_files.append(path)
        configs = sweep_configs(template)
        out = work / "sweep_out"
        items.append(Item("sweep-00",
                          ["sweep", "--scenario", str(path), "--out", str(out),
                           "--jobs", str(SWEEP_JOBS)],
                          out=out, runs=len(configs), oracle={"cfgs": configs}))
    elif workload == "flatnorm":
        slots = range(3) if tiny else range(len(FLATNORM_SLOTS))
        for slot in slots:
            space, (wa, wb) = measure_pair(seed, slot)
            paths = []
            for tag, w in (("a", wa), ("b", wb)):
                doc = {"space": space,
                       "weights": [[i, v] for i, v in enumerate(w) if v != 0.0]}
                paths.append(_write(work / f"measure_{slot:02d}{tag}.json", doc))
            measure_files += paths
            items.append(Item(f"flatnorm-{slot:02d}",
                              ["flatnorm", str(paths[0]), str(paths[1])],
                              oracle={"space": space, "weights": (wa, wb)}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Workload(workload, items, scenario_files, measure_files)
