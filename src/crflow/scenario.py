"""Scenarios: parsing, validation, deterministic hashing, and running.

A scenario is a single JSON document declaring the strategy space, the
mutation kernel, the vital rates, the initial state, and integrator
control. `_SCHEMA` declares every key of every scenario object and of a
measure file, and `_read` checks a document against it, NaN and infinite
numbers included. Every output file embeds the content hash of the document
as written, so reruns are byte-for-byte reproducible. `run` integrates a
built scenario with the method its control names.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

import crflow
from crflow.analysis import DiagnosticsReport, diagnostics
from crflow.dynamics import (
    METHODS,
    StepControl,
    SystemState,
    Trajectory,
    integrate,
    picard_solve,
)
from crflow.errors import ConfigError
from crflow.kernel import MutationKernel, local_mutation_kernel, pure_selection_kernel
from crflow.measure import DiscreteMeasure
from crflow.rates import (
    MORTALITY_FAMILIES,
    UPTAKE_FAMILIES,
    MortalitySpec,
    UptakeSpec,
    VitalRates,
    default_truncation_level,
)
from crflow.space import StrategySpace, build_grid


def scenario_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# Readers: each converts one JSON value or raises TypeError or ValueError.
# Readers of numbers take JSON numbers only: a string, true, false or null
# fails, alone or inside an array, and so do NaN and infinite numbers.

_NUMBER_TYPES = frozenset((int, float))
_LIST_TYPE = frozenset((list,))


def _is_number(value) -> bool:
    """An int or float, not a bool; the type lookup first, as json.load
    makes exactly these types."""
    return type(value) in _NUMBER_TYPES or isinstance(value, float)


def _real(value) -> float:
    if not _is_number(value):
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {json.dumps(value)}")
    return value


def _real_or_null(value) -> float | None:
    return None if value is None else _real(value)


def _integer(least=None):
    """Reader of an integral number >= least: 2.0 reads as 2; 2.5, "2" and
    true fail."""
    def read(value) -> int:
        if not _is_number(value) or isinstance(value, float) and _real(value) % 1:
            raise TypeError(f"expected an integer, got {json.dumps(value)}")
        if least is not None and int(value) < least:
            raise ValueError(f"expected an integer >= {least}, got {int(value)}")
        return int(value)
    return read


def _numbers(value, at: str = "") -> None:
    """Raise unless value is a number or nested lists of numbers; the error's
    second argument is the failing entry's index path, such as "[1]"."""
    if type(value) is list:
        # One pass over a list of numbers or a list of lists of numbers, the
        # shapes the schema has; entry by entry only for others or a fault.
        rows = _LIST_TYPE.issuperset(map(type, value))
        if _NUMBER_TYPES.issuperset(map(type, chain.from_iterable(value) if rows
                                        else value)):
            return
        for k, entry in enumerate(value):
            _numbers(entry, f"{at}[{k}]")
    elif not _is_number(value):
        raise TypeError(f"expected a number, got {json.dumps(value)}", at)


def _array(value) -> np.ndarray:
    """Float array of a number or nested lists of numbers. A ragged array
    fails; so does a NaN or infinite entry, with the entry's index as the
    error's second argument: a key path suffix such as "[1]"."""
    _numbers(value)
    try:
        arr = np.asarray(value, dtype=float)
    except ValueError:                      # numpy's text names no key
        raise ValueError("expected a rectangular array, got a ragged one") from None
    if not np.isfinite(arr).all():
        at = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"non-finite number {json.dumps(float(arr[tuple(at)]))}",
                         "".join(f"[{i}]" for i in at))
    return arr


def _counts(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of integers, got {json.dumps(value)}")
    return [_integer(1)(count) for count in value]


def _given(value):
    """Passed on as written; its builder checks it."""
    return value


def _choice(*names):
    def read(value) -> str:
        if value not in names:
            raise ValueError(f"expected one of {', '.join(names)}, "
                             f"got {json.dumps(value)}")
        return value
    return read


# kind -> (required keys, {key: reader}); a reader is a function of the JSON
# value or the kind of a nested object. A key left out gets no value here:
# its default is the one of the function that takes it.
_SCHEMA = {
    "scenario": (("space", "kernel", "rates", "initial", "control"), {
        "space": "space", "kernel": "kernel", "rates": "rates",
        "initial": "initial", "control": "control", "truncation": _real_or_null,
        "seed": _integer(), "sweep": _given}),
    "space": ((), {"grid": "grid", "points": _array, "metric": _array}),
    "grid": (("bounds", "counts"), {"dim": _integer(1), "bounds": _array,
                                   "counts": _counts}),
    "kernel": ((), {"family": _choice("pure_selection", "gaussian"), "width": _real,
                    "matrix": _array}),
    "rates": (("inflow", "dilution", "uptake", "mortality"), {
        "inflow": _real, "dilution": _real, "uptake": "uptake",
        "mortality": "mortality"}),
    "uptake": (("family", "b"), {"family": _choice(*UPTAKE_FAMILIES),
                                 "b": _given, "a": _given}),
    "mortality": (("family", "d0"), {"family": _choice(*MORTALITY_FAMILIES),
                                     "d0": _given, "c": _given}),
    "coefficient": (("affine",), {"affine": "affine"}),
    "affine": ((), {"const": _real, "slope": _array}),
    "initial": (("S", "weights"), {"S": _real, "weights": _array}),
    "control": (("t_end",), {
        "method": _choice(*METHODS), "dt": _real,
        "t_end": _real, "tolerance": _real, "record_every": _integer(),
        "lambda": _real_or_null}),
    "measure": (("space", "weights"), {"space": "space", "weights": _array}),
}


def _value(value, where: str, reader):
    """reader(value), or a ConfigError that starts with the key path where.

    A second argument of the reader's error extends the key path.
    """
    try:
        return reader(value)
    except (TypeError, ValueError, OverflowError) as exc:
        if len(exc.args) == 2:
            where, exc = where + exc.args[1], exc.args[0]
        raise ConfigError(f"{where}: {exc}") from None


def _read(node, path: str, kind: str) -> dict:
    """The keys of a scenario object of `kind`, converted by their readers.

    An unknown, missing or ill-typed key is a ConfigError whose message
    starts with its key path; path is "" for the document itself.
    """
    if not isinstance(node, dict):
        raise ConfigError(f"{path or kind}: expected a JSON object")
    required, readers = _SCHEMA[kind]
    for key in node:
        if key not in readers:
            raise ConfigError(f"{path or kind}.{key}: unknown key")
    out = {}
    for key, reader in readers.items():
        where = f"{path}.{key}" if path else key
        if key not in node:
            if key in required:
                raise ConfigError(f"{where}: required key is missing")
        elif isinstance(reader, str):
            out[key] = _read(node[key], where, reader)
        else:
            out[key] = _value(node[key], where, reader)
    return out


def check_sweep_path(name: str) -> None:
    """Raise a ConfigError unless the dotted key path name resolves through
    _SCHEMA, up to a pass-through key whose builder checks the value."""
    keys, reader = name.split("."), "scenario"
    for depth, key in enumerate(keys):
        if not isinstance(reader, str):
            raise ConfigError(f"sweep.{name}: {'.'.join(keys[:depth])} is not an object")
        reader = _SCHEMA[reader][1].get(key)
        if reader is None:
            raise ConfigError(f"sweep.{name}: unknown key")
        if reader is _given:
            break


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: scenario must be a JSON object")
    return cfg


def build_space(spec: dict, path: str = "space") -> StrategySpace:
    """The strategy space of a `space` object as `_read` returns it."""
    if "grid" in spec:
        if "points" in spec or "metric" in spec:
            raise ConfigError(f"{path}: give either 'grid' or 'points', not both")
        g = spec["grid"]
        try:
            return build_grid(g.get("dim", len(g["bounds"])), g["bounds"], g["counts"])
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.grid: {exc}") from None
    if "points" in spec:
        try:
            return StrategySpace(spec["points"], spec.get("metric"))
        except ConfigError as exc:          # its message starts with the key
            raise ConfigError(f"{path}.{exc}") from None
    raise ConfigError(f"{path}: needs either 'grid' or 'points'")


def _resolve_coeff(value, space: StrategySpace, name: str):
    """Scalar, per-atom list, or affine form of the atom coordinates."""
    if isinstance(value, dict):
        aff = _read(value, name, "coefficient")["affine"]
        slope = aff.get("slope", np.zeros(space.dim))
        if slope.shape != (space.dim,):
            raise ConfigError(f"{name}: slope must have one entry per axis")
        return aff.get("const", 0.0) + space.points @ slope
    arr = _value(value, name, _array)
    if arr.ndim == 0:
        return float(arr)
    if arr.shape != (space.size,):
        raise ConfigError(f"{name}: expected {space.size} per-atom values")
    return arr


def build_kernel(spec: dict, space: StrategySpace) -> MutationKernel:
    """The mutation kernel of a `kernel` object as `_read` returns it."""
    if "matrix" in spec:
        try:
            return MutationKernel(space, spec["matrix"])
        except ConfigError as exc:
            raise ConfigError(f"kernel.matrix: {exc}") from None
    family = spec.get("family")
    if family == "pure_selection":
        return pure_selection_kernel(space)
    if family == "gaussian":
        if "width" not in spec:
            raise ConfigError("kernel.width: required key is missing")
        try:
            return local_mutation_kernel(space, spec["width"])
        except ConfigError as exc:
            raise ConfigError(f"kernel.width: {exc}") from None
    raise ConfigError("kernel: needs either 'matrix' or 'family'")


def build_rates(spec: dict, space: StrategySpace, clamp: float) -> VitalRates:
    """The vital rates of a `rates` object as `_read` returns it, truncated
    at clamp."""

    def family(section: str, build):
        coeffs = {key: _resolve_coeff(value, space, f"rates.{section}.{key}")
                  for key, value in spec[section].items() if key != "family"}
        return build(spec[section]["family"], space.size, **coeffs)

    return VitalRates(
        inflow=spec["inflow"],
        dilution=spec["dilution"],
        uptake=family("uptake", UptakeSpec.build),
        mortality=family("mortality", MortalitySpec.build),
        clamp=clamp,
    )


@dataclass
class Scenario:
    """A fully validated scenario ready to run.

    The strategy space is state0.space, the truncation level N is
    rates.clamp (the rates were checked at it when built) and t_end is the
    document's control.t_end, the horizon of the run.
    """

    kernel: MutationKernel
    rates: VitalRates
    state0: SystemState
    t_end: float
    control: StepControl
    hash: str


def build_scenario(cfg: dict) -> Scenario:
    """Validate a configuration dict and assemble the run inputs.

    Raises ConfigError for structural problems and ValidationError when the
    rate assumptions fail their checks. The truncation level is decided here
    and nowhere else: the document's `truncation`, or else
    default_truncation_level of the inflow, the dilution and the initial
    state. The rates are built once, at that level, before the initial state
    is checked. The integer "seed" is a label: it enters the hash and
    changes no computed value.
    """
    doc = _read(cfg, "", "scenario")
    space = build_space(doc["space"])
    kernel = build_kernel(doc["kernel"], space)
    S0, weights = doc["initial"]["S"], doc["initial"]["weights"]
    truncation = doc.get("truncation")
    if truncation is None:
        truncation = default_truncation_level(
            doc["rates"]["inflow"], doc["rates"]["dilution"], S0, float(weights.sum()))
    rates = build_rates(doc["rates"], space, truncation)

    if weights.shape != (space.size,):
        raise ConfigError(
            f"initial.weights: expected {space.size} values, got {weights.shape}"
        )
    state0 = SystemState(S0, DiscreteMeasure(space, weights))
    if not state0.in_cone():
        raise ConfigError("initial state must lie in the nonnegative cone")

    control = doc["control"]
    if "lambda" in control:
        control["lam"] = control.pop("lambda")
    return Scenario(
        kernel=kernel,
        rates=rates,
        state0=state0,
        t_end=control.pop("t_end"),
        control=StepControl(**control),
        hash=scenario_hash(cfg),
    )


def run(sc: Scenario) -> tuple[Trajectory, DiagnosticsReport]:
    """Integrate a scenario to sc.t_end and build its DiagnosticsReport.

    The method is chosen here and nowhere else: "picard" runs picard_solve,
    "rk4" and "adaptive" run integrate; both take the same arguments and
    read sc.control. The trajectory's metadata carries the scenario hash
    and the package version.
    """
    solve = picard_solve if sc.control.method == "picard" else integrate
    traj = solve(sc.state0, sc.t_end, sc.control, sc.rates, sc.kernel)
    traj.metadata["scenario_hash"] = sc.hash
    traj.metadata["version"] = crflow.__version__
    return traj, diagnostics(traj, sc.rates)


def load_measure_file(path):
    """Measure file: a space spec plus (atom index, weight) pairs."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        doc = _read(doc, "", "measure")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    space = build_space(doc["space"], f"{path}: space")
    pairs = doc["weights"]
    if pairs.size == 0:                     # no pairs: the zero measure
        pairs = np.empty((0, 2))
    elif pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ConfigError(f"{path}: weights: expected a list of [index, weight] pairs")
    index = pairs[:, 0]
    bad = np.flatnonzero((index % 1 != 0) | (index < 0) | (index >= space.size))
    if bad.size:
        raise ConfigError(f"{path}: weights[{bad[0]}][0]: expected an atom index "
                          f"in 0..{space.size - 1}, got {index[bad[0]]:g}")
    w = np.zeros(space.size)
    np.add.at(w, index.astype(int), pairs[:, 1])    # in order, as a loop adds
    return DiscreteMeasure(space, w)
