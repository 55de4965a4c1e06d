"""Scenario configuration: parsing, validation, and deterministic hashing.

A scenario is a single JSON document declaring the strategy space, the
mutation kernel, the vital rates, the initial state, and integrator
control. Every output file embeds the content hash of the effective
configuration, so reruns are byte-for-byte reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from crflow.dynamics import StepControl, SystemState
from crflow.errors import ConfigError, ValidationError
from crflow.kernel import (
    MutationKernel,
    local_mutation_kernel,
    pure_selection_kernel,
    validate_stochastic,
)
from crflow.measure import DiscreteMeasure
from crflow.rates import (
    MortalitySpec,
    UptakeSpec,
    VitalRates,
    default_truncation_level,
    truncate,
    validate_assumptions,
)
from crflow.space import StrategySpace, build_grid, euclidean_metric


def canonical_json(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def scenario_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


@contextmanager
def _reading(path: str):
    """Report a missing or ill-typed entry under `path` as a ConfigError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}: required key is missing") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


# The keys each kind of scenario object may hold; any other is a ConfigError.
_KEYS = {
    "scenario": {"space", "kernel", "rates", "initial", "control", "truncation",
                 "seed", "sweep", "allow_invalid_rates"},
    "space": {"grid", "points", "metric"},
    "grid": {"dim", "bounds", "counts"},
    "kernel": {"family", "width", "matrix", "renormalize"},
    "rates": {"inflow", "dilution", "uptake", "mortality"},
    "uptake": {"family", "b", "a"},
    "mortality": {"family", "d0", "c"},
    "coefficient": {"affine"},
    "affine": {"const", "slope"},
    "initial": {"S", "weights"},
    "control": {"method", "dt", "t_end", "tolerance", "record_every",
                "lambda", "picard_tol", "nodes", "max_iter"},
}


def _object(node, path: str, kind: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    for key in node:
        if key not in _KEYS[kind]:
            raise ConfigError(f"{path}.{key}: unknown key")
    return node


class _NonFinite:
    """Stands in for a number that JSON parsing would make NaN or infinite."""

    def __init__(self, text: str):
        self.text = text


def _first_non_finite(node, path: str):
    """(key path, literal) of the first _NonFinite under node, or None."""
    if isinstance(node, _NonFinite):
        return path, node.text
    if isinstance(node, dict):
        items = [(f"{path}.{key}" if path else key, v) for key, v in node.items()]
    elif isinstance(node, list):
        items = [(f"{path}[{k}]", v) for k, v in enumerate(node)]
    else:
        return None
    for child_path, child in items:
        found = _first_non_finite(child, child_path)
        if found:
            return found
    return None


def _load_json(path, prefix: str = ""):
    """Parse a JSON file. NaN, Infinity, -Infinity and numbers too large
    for a float are a ConfigError naming their key path after prefix; the
    document is walked only when the parser met one.
    """
    seen = []

    def number(text: str):
        value = float(text)
        if math.isfinite(value):
            return value
        seen.append(text)
        return _NonFinite(text)

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, parse_float=number, parse_constant=number)
    if seen:
        where, text = _first_non_finite(doc, "")
        raise ConfigError(f"{prefix}{where}: non-finite number {text}")
    return doc


def load_config(path) -> dict:
    cfg = _load_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: scenario must be a JSON object")
    return cfg


def build_space(spec: dict, path: str = "space") -> StrategySpace:
    spec = _object(spec, path, "space")
    if "grid" in spec:
        g = _object(spec["grid"], f"{path}.grid", "grid")
        with _reading(f"{path}.grid"):
            bounds = g["bounds"]
            counts = g["counts"]
            dim = g.get("dim", len(bounds))
            return build_grid(dim, bounds, counts)
    if "points" in spec:
        with _reading(path):
            points = np.atleast_2d(np.asarray(spec["points"], dtype=float))
            if "metric" in spec:
                metric = np.asarray(spec["metric"], dtype=float)
            else:
                metric = euclidean_metric(points)
            return StrategySpace(points=points, metric=metric)
    raise ConfigError("space spec needs either 'grid' or 'points'")


def _resolve_coeff(value, space: StrategySpace, name: str):
    """Scalar, per-atom list, or affine form of the atom coordinates."""
    if isinstance(value, dict):
        if "affine" not in _object(value, name, "coefficient"):
            raise ConfigError(f"{name}: unknown coefficient form {value}")
        aff = _object(value["affine"], f"{name}.affine", "affine")
        with _reading(f"{name}.affine"):
            const = float(aff.get("const", 0.0))
            slope = np.asarray(aff.get("slope", [0.0] * space.dim), dtype=float)
        if slope.shape != (space.dim,):
            raise ConfigError(f"{name}: slope must have one entry per axis")
        return const + space.points @ slope
    with _reading(name):
        arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return float(arr)
    if arr.shape != (space.size,):
        raise ConfigError(f"{name}: expected {space.size} per-atom values")
    return arr


def build_kernel(spec: dict, space: StrategySpace) -> MutationKernel:
    renorm = bool(spec.get("renormalize", False))
    if "matrix" in spec:
        with _reading("kernel"):
            rows = np.asarray(spec["matrix"], dtype=float)
        report = validate_stochastic(rows, space)
        if not report.ok and not renorm:
            raise ValidationError(
                "kernel matrix is not row-stochastic: "
                + "; ".join(report.messages)
            )
        return MutationKernel(space, rows, renormalize=renorm)
    family = spec.get("family")
    if family == "pure_selection":
        return pure_selection_kernel(space)
    if family == "gaussian":
        with _reading("kernel"):
            width = float(spec["width"])
        return local_mutation_kernel(space, width)
    raise ConfigError(f"unknown kernel family {family!r}")


def build_rates(spec: dict, space: StrategySpace) -> VitalRates:
    with _reading("rates"):
        up = _object(spec["uptake"], "rates.uptake", "uptake")
        mo = _object(spec["mortality"], "rates.mortality", "mortality")
        inflow = float(spec["inflow"])
        dilution = float(spec["dilution"])
    with _reading("rates.uptake"):
        uptake = UptakeSpec.build(
            up["family"],
            space.size,
            _resolve_coeff(up["b"], space, "rates.uptake.b"),
            a=_resolve_coeff(up["a"], space, "rates.uptake.a") if "a" in up else None,
        )
    with _reading("rates.mortality"):
        mortality = MortalitySpec.build(
            mo["family"],
            space.size,
            _resolve_coeff(mo["d0"], space, "rates.mortality.d0"),
            c=_resolve_coeff(mo["c"], space, "rates.mortality.c") if "c" in mo else None,
        )
    return VitalRates(
        inflow=inflow,
        dilution=dilution,
        uptake=uptake,
        mortality=mortality,
    )


def build_control(spec: dict) -> StepControl:
    method = spec.get("method", "rk4")
    if method not in ("rk4", "adaptive", "picard"):
        raise ConfigError(f"unknown integrator {method!r}")
    with _reading("control"):
        return StepControl(
            method=method,
            dt=float(spec.get("dt", 1e-3)),
            t_end=float(spec["t_end"]),
            tolerance=float(spec.get("tolerance", 1e-8)),
            record_every=int(spec.get("record_every", 1)),
        )


@dataclass
class Scenario:
    """A fully validated scenario ready to run.

    The strategy space is state0.space and the truncation level N is
    rates.clamp.
    """

    kernel: MutationKernel
    rates: VitalRates            # truncated
    state0: SystemState
    control: StepControl
    picard_options: dict         # picard_solve keywords, used when method is picard
    hash: str


def build_scenario(cfg: dict) -> Scenario:
    """Validate a configuration dict and assemble the run inputs.

    Raises ConfigError for structural problems and ValidationError when the
    kernel or the rate assumptions fail their checks (override the latter
    with "allow_invalid_rates": true). The integer "seed" is a label: it
    enters the hash and changes no computed value.
    """
    _object(cfg, "scenario", "scenario")
    for key in ("space", "kernel", "rates", "initial", "control"):
        if key not in cfg:
            raise ConfigError(f"scenario missing section {key!r}")
        _object(cfg[key], key, key)
    space = build_space(cfg["space"])
    kernel = build_kernel(cfg["kernel"], space)
    rates = build_rates(cfg["rates"], space)

    init = cfg["initial"]
    with _reading("initial"):
        S0 = float(init["S"])
        weights = np.asarray(init["weights"], dtype=float)
    if weights.shape != (space.size,):
        raise ConfigError(
            f"initial weights: expected {space.size} values, got {weights.shape}"
        )
    if S0 < 0 or np.any(weights < 0):
        raise ConfigError("initial state must lie in the nonnegative cone")
    state0 = SystemState(S0, DiscreteMeasure(space, weights))

    truncation = cfg.get("truncation")
    if truncation is None:
        truncation = default_truncation_level(rates, S0, float(weights.sum()))
    with _reading("truncation"):
        truncation = float(truncation)
    rates = truncate(rates, truncation)

    report = validate_assumptions(rates, space, truncation)
    if not report.ok and not cfg.get("allow_invalid_rates", False):
        raise ValidationError(
            "rate assumptions failed: " + "; ".join(report.messages)
        )

    control_spec = cfg["control"]
    control = build_control(control_spec)
    with _reading("control"):
        picard_options = {
            "lam": control_spec.get("lambda"),
            "tol": float(control_spec.get("picard_tol", 1e-12)),
            "nodes": int(control_spec.get("nodes", 512)),
            "max_iter": int(control_spec.get("max_iter", 200)),
        }
    with _reading("seed"):
        int(cfg.get("seed", 0))      # type check only

    return Scenario(
        kernel=kernel,
        rates=rates,
        state0=state0,
        control=control,
        picard_options=picard_options,
        hash=scenario_hash(cfg),
    )


def load_measure_file(path):
    """Measure file: a space spec plus (atom index, weight) pairs."""
    doc = _load_json(path, f"{path}: ")
    if not isinstance(doc, dict) or "space" not in doc or "weights" not in doc:
        raise ConfigError(f"{path}: measure file needs 'space' and 'weights'")
    space = build_space(doc["space"], f"{path}: space")
    with _reading(f"{path}: weights"):
        entries = [(int(idx), float(val)) for idx, val in doc["weights"]]
    w = np.zeros(space.size)
    for idx, val in entries:
        if not 0 <= idx < space.size:
            raise ConfigError(f"{path}: atom index {idx} out of range")
        w[idx] += val
    return DiscreteMeasure(space, w)
