"""crflow benchmark: four CLI workloads driven in-process, plus a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

The benchmark writes the seeded inputs under .perfbench_work/, imports crflow
from src/, and calls crflow.cli.main(argv) for one item after another (a
closed loop with one client) until the items have taken --seconds. With
--trace 0 it prints the end-to-end metrics; with --trace 1 it alternates an
untraced and a traced pass over the same items for --seconds and prints the
per-layer metrics. Outputs are checked against independent oracles after the
timed region. The last line of stdout is the result object; the full record
(environment, sample counts, digests, identities) goes to .perfbench_out/.
"""

from __future__ import annotations

import os

# One BLAS thread per process, so `sweep --jobs 2` uses at most two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_out"
SETUP_REPS = 15

END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "scenario.load.calls": "count",
    "scenario.load.s": "s",
    "space.build.s": "s",
    "rates.calls": "count",
    "rates.s": "s",
    "dynamics.integrate.calls": "count",
    "dynamics.integrate.self_s": "s",
    "dynamics.steps": "count",
    "dynamics.us_per_step": "us",
    "dynamics.picard.calls": "count",
    "dynamics.picard.s": "s",
    "dynamics.picard.iterations": "count",
    "analysis.diagnostics.calls": "count",
    "analysis.diagnostics.self_s": "s",
    "analysis.mass_balance.s": "s",
    "measure.flat_distance.calls": "count",
    "measure.flat_distance.self_s": "s",
    "simplex.solve_lp.calls": "count",
    "simplex.solve_lp.s": "s",
    "simplex.rows_max": "count",
    "simplex.tableau_mb_max": "MB",
    "cli.write.s": "s",
    "cli.write.bytes": "bytes",
    "cli.sweep.child_busy_s": "s",
    "cli.sweep.parallel_efficiency": "ratio",
    **{f"{layer}.self_s": "s" for layer in tracer.LAYERS},
    "trace.overhead_s": "s",
}
EXACT_UNITS = ("count", "bytes", "MB")   # repeat exactly for one seed


def setup_once(wl) -> float:
    """Import crflow afresh, then load and validate every input of the workload."""
    for name in [n for n in sys.modules if n == "crflow" or n.startswith("crflow.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("crflow.cli")
    if Path(sys.modules["crflow"].__file__).resolve().parent != SRC / "crflow":
        raise ImportError(f"crflow imported from {sys.modules['crflow'].__file__}")
    from crflow.scenario import build_scenario, load_config, load_measure_file

    for path in wl.scenario_files:
        cfg = load_config(path)
        cfg.pop("sweep", None)
        build_scenario(cfg)
    for path in wl.measure_files:
        load_measure_file(path)
    return time.perf_counter() - t0


def _digest(item, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    if item.out is not None:
        for path in sorted(p for p in item.out.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(item.out)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def csv_rows(out) -> int:
    """Data rows of out/trajectory.csv (after the comment and header lines)."""
    with open(Path(out) / "trajectory.csv", encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 2


class Runner:
    """Runs items, checks exit codes and repeat digests, keeps tallies."""

    def __init__(self, wl):
        self.digest, self.stdout = {}, {}
        self.executions = {item.key: 0 for item in wl.items}
        self.failed_units = {item.key: 0 for item in wl.items}
        self.problems = []

    def problem(self, item, message):
        if len(self.problems) < 20:
            self.problems.append(f"{item.key}: {message}")

    def run(self, item) -> float:
        if item.out is not None and item.out.exists():
            shutil.rmtree(item.out)
        buf, error = io.StringIO(), None
        with redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                rc = sys.modules["crflow.cli"].main(item.argv)
            except Exception:   # any crash is a failed item, the loop goes on
                rc, error = None, traceback.format_exc(limit=4)
            elapsed = time.perf_counter() - t0
        out = buf.getvalue()
        ok = rc == 0
        if error is not None:
            self.problem(item, error)
        elif not ok:
            self.problem(item, f"exit code {rc}: {out[-300:]}")
        digest = _digest(item, out) if error is None else "crashed"
        first = self.digest.setdefault(item.key, digest)
        self.stdout.setdefault(item.key, out)
        if digest != first:
            ok = False
            self.problem(item, "output digest differs between repeats")
        self.executions[item.key] += 1
        if not ok:
            self.failed_units[item.key] += item.runs
        return elapsed

    def run_digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.digest):
            h.update(f"{key}={self.digest[key]}\n".encode())
        return h.hexdigest()


def gate(wl, runner) -> dict:
    """Units of each item that miss their oracle (per execution)."""
    misses = {}
    for item in wl.items:
        try:
            missed = _check_item(wl.name, item, runner.stdout.get(item.key, ""))
        except Exception as exc:   # unreadable output or a failed reference
            missed = [f"oracle could not run: {exc!r}"] * item.runs
        if missed:
            misses[item.key] = len(missed)
            runner.problem(item, "; ".join(missed[:3]))
    return misses


def _check_item(workload, item, stdout) -> list:
    if workload == "check":
        lines = stdout.splitlines()
        if len(lines) == 6 and all(line.startswith("PASS ") for line in lines):
            return []
        return [f"check output not six PASS lines: {stdout[-300:]!r}"]
    if workload == "flatnorm":
        space, (wa, wb) = item.oracle["space"], item.oracle["weights"]
        want = oracles.flat_norm(space, np.subtract(wa, wb))
        got = float(stdout.strip())
        if abs(got - want) > oracles.FLAT_TOL:
            return [f"flat norm {got!r} vs HiGHS {want!r}"]
        return []
    missed = []
    for index, cfg in enumerate(item.oracle["cfgs"]):
        method = cfg["control"]["method"]
        if workload == "simulate":
            doc = json.loads((item.out / "diagnostics.json").read_text())
            S, weights = doc["endpoint"]["S"], doc["endpoint"]["weights"]
        else:
            path = item.out / f"run_{index:04d}" / "trajectory.csv"
            last = path.read_text().splitlines()[-1].split(",")
            S, weights = float(last[1]), [float(v) for v in last[3:]]
        err = oracles.endpoint_error(cfg, S, weights)
        if not err <= oracles.ENDPOINT_TOL[method]:
            missed.append(f"run {index} ({method}) endpoint off DOP853 by {err:.3e}")
    return missed


def _percentile_tail(latencies, pct):
    """(value, percentile, items beyond, fell back) for item_tail_ms.

    The value at pct if at least ten items lie beyond it; otherwise the
    highest percentile that has ten beyond, the 11th-largest latency.
    """
    value = float(np.percentile(latencies, pct))
    beyond = sum(1 for x in latencies if x > value)
    if beyond >= 10:
        return value, pct, beyond, False
    n = len(latencies)
    value = sorted(latencies)[max(n - 11, 0)]
    return value, max(0.0, 100.0 * (n - 10) / n), min(10, n - 1), True


def _peak_rss_mb(jobs) -> float:
    """Own peak RSS plus `jobs` times the largest child's (an upper bound)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + jobs * child) * 1024 / 1e6


def environment() -> dict:
    from importlib import metadata

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:   # the layout of show_config differs by version
        blas = repr(exc)
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "thread_caps": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(wl, runner, seconds) -> tuple:
    """Closed loop of whole passes over the items until they took `seconds`.

    Whole passes keep the item mix of every run the same. Returns (item key,
    latency in s) per execution and the number of items completed.
    """
    samples, runs, spent = [], 0, 0.0
    while not samples or spent < seconds:
        for item in wl.items:
            dt = runner.run(item)
            samples.append((item.key, dt))
            runs += item.runs
            spent += dt
    return samples, runs


def expected_flat_calls(wl) -> dict:
    if wl.name == "flatnorm":
        return {"cli.cmd_flatnorm": len(wl.items)}
    if wl.name == "check":
        return {"cli.run_checks": 3 * len(wl.items)}   # semiflow, step, picard
    return {}


def traced(wl, runner, seconds) -> tuple:
    """Passes in which every item runs untraced and then traced, for `seconds`.

    Returns the per-layer metrics (counts from the first pass, times as the
    median over passes), a detail record and the span buffers.
    """
    passes, idents, spans, spent = [], [], [], 0.0
    overhead = {item.key: [] for item in wl.items}
    while not passes or spent < seconds:
        buffer = tracer.Tracer()
        for item in wl.items:
            plain = runner.run(item)
            undo = tracer.install(buffer)
            try:
                with_trace = runner.run(item)
            finally:
                tracer.uninstall(undo)
            overhead[item.key].append(with_trace - plain)
            spent += plain + with_trace
        view = tracer.Trace(buffer)
        passes.append(tracer.layer_metrics(view))
        idents.append(tracer.identities(view, csv_rows, expected_flat_calls(wl)))
        spans.append(buffer)
    metrics = {}
    for name in passes[0]:
        if PER_LAYER[name] in EXACT_UNITS:
            metrics[name] = passes[0][name]
        else:
            metrics[name] = statistics.median(p[name] for p in passes)
    # traced minus untraced time of one pass, from each item's median pair
    metrics["trace.overhead_s"] = sum(statistics.median(v) for v in overhead.values())
    detail = {
        "passes": len(passes),
        "counts_repeat": all(
            p[k] == passes[0][k] for p in passes for k in p
            if PER_LAYER[k] in EXACT_UNITS),
        "identities": idents[0],
        "identities_hold": all(v["holds"] for ident in idents for v in ident.values()),
        "spans_per_pass": [len(b) for b in spans],
    }
    return metrics, detail, spans


def write_spans(path: Path, buffers) -> None:
    arrays = {}
    for k, b in enumerate(buffers):
        for field in ("name", "start", "end", "parent"):
            arrays[f"pass{k}_{field}"] = np.asarray(getattr(b, field))
        arrays[f"pass{k}_names"] = np.array(b.names)
    np.savez_compressed(path, **arrays)


def run_workload(name, seed, seconds, trace, tiny=False) -> tuple:
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = workloads.generate(name, seed, work, tiny=tiny)
        setups = [setup_once(wl) for _ in range(SETUP_REPS)]
        runner = Runner(wl)
        runner.run(wl.items[0])                  # warm-up, checked but not timed
        detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "environment": environment(), "setup_s_samples": setups}
        if trace:
            metrics, tdetail, spans = traced(wl, runner, seconds)
            detail.update(tdetail)
        else:
            samples, runs = measure(wl, runner, seconds)
            latencies = [dt for _, dt in samples]
            spent = sum(latencies)
            jobs = workloads.SWEEP_JOBS if name == "sweep" else 0
            rss = _peak_rss_mb(jobs)
            tail, pct, beyond, fallback = _percentile_tail(
                latencies, workloads.TAIL_PERCENTILE[name])
            per_item = {}
            for key, dt in samples:
                per_item.setdefault(key, []).append(dt)
            medians = {key: statistics.median(v) for key, v in per_item.items()}
            metrics = {
                # one pass of the items at each item's median latency
                "items_per_s": sum(item.runs for item in wl.items) / sum(medians.values()),
                "item_p50_ms": 1e3 * statistics.median(latencies),
                "item_tail_ms": 1e3 * tail,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": rss,
            }
            detail.update({
                "samples": {"items": runs, "latencies": len(latencies),
                            "setup": len(setups), "timed_s": spent},
                "item_tail": {"percentile": pct, "items_beyond": beyond,
                              "fallback": fallback},
                "item_latencies_ms": {key: [1e3 * dt for dt in per_item[key]]
                                      for key in sorted(per_item)},
            })
        misses = gate(wl, runner)
        failed = sum(max(runner.failed_units[item.key],
                         misses.get(item.key, 0) * runner.executions[item.key])
                     for item in wl.items)
        attempted = sum(runner.executions[item.key] * item.runs for item in wl.items)
        detail.update({"attempted": attempted, "failed": failed,
                       "failed_ratio": failed / attempted,
                       "digest": runner.run_digest(), "item_digests": runner.digest,
                       "problems": runner.problems})
        if trace:
            RESULTS.mkdir(exist_ok=True)
            write_spans(RESULTS / f"spans-{name}-seed{seed}.npz", spans)
        units = PER_LAYER if trace else END_TO_END
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        return result, detail
    finally:
        shutil.rmtree(work, ignore_errors=True)


def smoke() -> int:
    """Each workload once at tiny sizes, untraced and traced; names checked."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result, detail = run_workload(name, 1, 0, trace, tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = list(detail["problems"])
            if got != declared[trace]:
                problems.append(f"metrics {sorted(got)} differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append("outputs failed their checks")
            if trace and not detail["identities_hold"]:
                problems.append(f"identities: {detail['identities']}")
            print(f"{name} trace={trace}: {'ok' if not problems else problems}")
            status |= bool(problems)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "crflow" / "__init__.py").is_file():
        print(f"perfbench: no crflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if args.trace and not detail["identities_hold"]:
        print(f"perfbench: exact-count identities fail: {detail['identities']}",
              file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    record = {"result": result, "detail": detail}
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
