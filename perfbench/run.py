"""Certification benchmark for poa_lab: one workload per run.

    python3 perfbench/run.py --workload grid-pne --seed 1007 --seconds 35 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the checkout that holds this file.  Everything runs in this one process,
with the package's default ``parallelism`` and ``POA_LAB_THREADS``
removed from the environment, so load stays on one core.

``--trace 0`` times whole sweeps and reports the end-to-end metrics;
``--trace 1`` alternates plain and traced sweeps and reports the per-layer
metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` count output checks, and
``metrics`` maps each metric name to its value and unit.  The exit code is
1 when an output check failed and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench_trace import Tracer, summarize  # noqa: E402
from bench_workloads import WORKLOADS, EquilibriumTap  # noqa: E402

SETUP_REPEATS = 9
MIN_SWEEPS = 3
MIN_TRACED_PAIRS = 2

END_TO_END = (("cases_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Traced functions and the statistics reported for each.
LAYERS = (
    ("mechanisms.run_auction", ("calls", "self_s")),
    ("mechanisms.allocate", ("calls", "self_s")),
    ("mechanisms.BidProfile", ("calls", "self_s")),
    ("mechanisms.beta_minus_i", ("calls", "self_s")),
    ("equilibria.find_pure_nash",
     ("self_s", "call_ms_p50", "call_ms_p90", "profiles")),
    ("equilibria.best_response", ("calls", "self_s", "auctions_per_call")),
    ("equilibria.is_pure_nash", ("calls", "self_s")),
    ("instances.verify_proposition1", ("calls", "call_ms_p50")),
    ("welfare.optimal_allocation", ("calls", "self_s")),
    ("smoothness.expected_deviation_utility_exact", ("calls", "self_s")),
    ("smoothness.verify_key_lemma", ("self_s",)),
    ("smoothness.template_margins_key_lemma", ("self_s",)),
    ("smoothness.verify_smoothness", ("self_s",)),
    ("valuations.random_valuation", ("calls", "self_s")),
    ("sweeps.pne_efficiency_sweep", ("wall_s",)),
    ("sweeps.key_lemma_sweep", ("wall_s",)),
    ("sweeps.smoothness_sweep", ("wall_s",)),
    ("sweeps.proposition1_sweep", ("wall_s",)),
    ("sweeps.lemma1_conversion_sweep", ("wall_s",)),
    ("harness.run", ("self_s",)),
)
TRACE_TARGETS = tuple(tuple(span.split(".")) for span, _ in LAYERS)
STAT_UNITS = {"calls": "count", "self_s": "s", "wall_s": "s",
              "call_ms_p50": "ms", "call_ms_p90": "ms", "profiles": "count",
              "auctions_per_call": "auctions/call"}
PER_LAYER = tuple((f"{span}.{stat}", STAT_UNITS[stat])
                  for span, stats in LAYERS for stat in stats) + (
    ("trace.overhead_ratio", "ratio"),)


def set_up(workload: str, seed: int, out_dir: str):
    """Import poa_lab afresh and build the workload's inputs, several times;
    returns the last workload and the time of each set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules
                     if m == "poa_lab" or m.startswith("poa_lab.")]:
            del sys.modules[name]
        gc.collect()
        t0 = time.perf_counter()
        lab = SimpleNamespace(**{
            m: importlib.import_module(f"poa_lab.{m}")
            for m in ("sweeps", "harness", "smoothness")})
        bench = WORKLOADS[workload](lab, seed, out_dir)
        times.append(time.perf_counter() - t0)
    return bench, times


def timed_sweep(bench, tap):
    gc.collect()
    tap.take()
    t0 = time.perf_counter()
    output = bench.sweep()
    elapsed = time.perf_counter() - t0
    return elapsed, bench.check(output, tap.take())


def measure(bench, tap, seconds: float):
    """Repeat the sweep for about ``seconds``; returns sweep times, checks."""
    times, checks = [], []
    start = time.perf_counter()
    while True:
        elapsed, sweep_checks = timed_sweep(bench, tap)
        times.append(elapsed)
        checks += sweep_checks
        spent = time.perf_counter() - start
        if (len(times) >= MIN_SWEEPS
                and spent + statistics.median(times) > seconds):
            return times, checks


def measure_traced(bench, tap, seconds: float, spans_path: str):
    """Alternate plain and traced sweeps for about ``seconds``.

    Returns the per-sweep span summaries, the profiles each traced sweep's
    searches evaluated, the traced/plain time ratios and the checks.  The
    spans of the last traced sweep are written to ``spans_path``.
    """
    summaries, profiles, ratios, checks = [], [], [], []
    start = time.perf_counter()
    while True:
        plain, sweep_checks = timed_sweep(bench, tap)
        checks += sweep_checks
        gc.collect()
        tap.take()
        tracer = Tracer(TRACE_TARGETS)
        t0 = time.perf_counter()
        with tracer as store:
            output = bench.sweep()
        traced = time.perf_counter() - t0
        taps = tap.take()
        checks += bench.check(output, taps)
        summaries.append(summarize(store))
        profiles.append(sum(evaluated for _, _, evaluated in taps))
        ratios.append(traced / plain)
        spent = time.perf_counter() - start
        pair = spent / len(ratios)
        if len(ratios) >= MIN_TRACED_PAIRS and spent + pair > seconds:
            store.save(spans_path)
            calls = [{name: s["calls"] for name, s in summary.items()}
                     for summary in summaries]
            checks.append(("trace_calls_repeat_across_sweeps",
                           all(c == calls[0] for c in calls)))
            return summaries, profiles, ratios, checks
        del store, tracer  # free the spans before the next plain sweep


def layer_metrics(summaries, profiles, ratios) -> dict:
    import numpy as np

    first = summaries[0]
    values = {}
    for span, stats in LAYERS:
        for stat in stats:
            if stat == "calls":
                value = first[span]["calls"]
            elif stat == "self_s":
                value = statistics.median(s[span]["self_s"] for s in summaries)
            elif stat == "wall_s":
                value = statistics.median(s[span]["total_s"]
                                          for s in summaries)
            elif stat.startswith("call_ms_p"):
                durations = np.concatenate(
                    [s[span]["durations_s"] for s in summaries])
                value = (float(np.percentile(durations, int(stat[9:]))) * 1e3
                         if durations.size else 0.0)
            elif stat == "profiles":
                value = profiles[0]
            elif stat == "auctions_per_call":
                calls = first[span]["calls"]
                auctions = first[span]["children"].get(
                    "mechanisms.run_auction", 0)
                value = auctions / calls if calls else 0.0
            values[f"{span}.{stat}"] = value
    values["trace.overhead_ratio"] = statistics.median(ratios)
    return values


def git_sha(root: Path):
    """Commit of the checkout, read from ``.git`` without running git."""
    head_file = root / ".git" / "HEAD"
    if not head_file.is_file():
        return None
    head = head_file.read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_file = root / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(root: Path, seed: int, sweep_seeds: dict,
                threads_env) -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "load_average": list(os.getloadavg()),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(root),
        "seed": seed,
        "sweep_seeds": sweep_seeds,
        "poa_lab_threads_was_set": threads_env is not None,
        "poa_lab_threads_value": threads_env,
    }


def quartiles(values) -> dict:
    q = statistics.quantiles(values, n=4)
    return {"q1": q[0], "median": q[1], "q3": q[2], "samples": len(values)}


def main(argv=None, root: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = root / "src"
    if not (src / "poa_lab" / "__init__.py").is_file():
        print(f"error: no poa_lab package under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    threads_env = os.environ.pop("POA_LAB_THREADS", None)
    out_dir = str(HERE / "out")
    os.makedirs(out_dir, exist_ok=True)

    bench, setup_times = set_up(args.workload, args.seed, out_dir)
    lab_file = Path(sys.modules["poa_lab"].__file__).resolve()
    if src.resolve() not in lab_file.parents:
        print(f"error: poa_lab imported from {lab_file}, not {src}",
              file=sys.stderr)
        return 2

    detail = {"workload": args.workload, "trace": args.trace,
              "cases_per_sweep": bench.cases,
              "environment": environment(root, args.seed, bench.seeds,
                                         threads_env),
              "setup_s_each": setup_times}
    with EquilibriumTap() as tap:
        if args.trace:
            summaries, profiles, ratios, checks = measure_traced(
                bench, tap, args.seconds,
                os.path.join(out_dir, f"spans-{args.workload}.npz"))
            values = layer_metrics(summaries, profiles, ratios)
            units = dict(PER_LAYER)
            detail["overhead_ratios"] = ratios
            detail["spans_file"] = f"perfbench/out/spans-{args.workload}.npz"
        else:
            times, checks = measure(bench, tap, args.seconds)
            rates = [bench.cases / t for t in times]
            values = {
                "cases_per_s": statistics.median(rates),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
            detail["cases_per_s_quartiles"] = quartiles(rates)
            detail["sweep_s_each"] = times

    detail["equilibria_digest"] = getattr(bench, "digest", None)
    failed = [name for name, ok in checks if not ok]
    detail["failed_ratio"] = len(failed) / len(checks)
    detail["failed_checks"] = sorted(set(failed))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(f"failed_ratio = {detail['failed_ratio']} ratio "
          f"({len(failed)} of {len(checks)} output checks)")
    with open(os.path.join(
            out_dir, f"result-{args.workload}-trace{args.trace}.json"),
            "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=2)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
