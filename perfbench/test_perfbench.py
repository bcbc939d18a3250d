"""Tests of the benchmark's own machinery: span arithmetic, wrapper
coverage, repeatable call counts and the metric tables in BENCHMARK.json.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import importlib
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run as bench_run  # noqa: E402
from bench_trace import SpanStore, Tracer, summarize  # noqa: E402
from bench_workloads import (  # noqa: E402
    WORKLOADS,
    DeviationCertify,
    EquilibriumTap,
    GridPNE,
    TieConstructions,
)


def lab():
    # The package is imported once per test process: re-importing it, as
    # run.py's set-up does, would leave other tests holding stale classes.
    return SimpleNamespace(**{m: importlib.import_module(f"poa_lab.{m}")
                              for m in ("sweeps", "harness", "smoothness")})


SMALL = {
    "grid-pne": lambda out: GridPNE(lab(), 1007, out, count=2),
    "deviation-certify": lambda out: DeviationCertify(lab(), 1001, out,
                                                      count=20),
    "tie-constructions": lambda out: TieConstructions(
        lab(), 1008, out, proposition1=3, conversion=6),
}


def traced_sweep(bench, tap):
    with Tracer(bench_run.TRACE_TARGETS) as store:
        output = bench.sweep()
    taps = tap.take()
    return summarize(store), bench.check(output, taps), taps


def test_self_time_subtracts_union_of_child_spans():
    store = SpanStore(["outer", "a", "b", "leaf"])
    outer = store.record("outer", -1, 0.0, 10.0)
    a = store.record("a", outer, 1.0, 4.0)
    store.record("leaf", a, 2.0, 3.0)
    store.record("b", outer, 3.0, 6.0)  # overlaps a on [3, 4]
    store.record("b", outer, 8.0, 9.0)
    # outer's children cover [1, 6] and [8, 9]
    assert list(store.self_times()) == pytest.approx([4.0, 2.0, 1.0, 3.0, 1.0])


def test_wrapped_nested_calls_split_time_between_layers():
    store = SpanStore(["outer", "inner"])
    inner = store.wrap("inner", lambda: time.sleep(0.005))

    def body():
        inner()
        inner()
    store.wrap("outer", body)()
    summary = summarize(store)
    assert summary["outer"]["calls"] == 1
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["children"] == {"inner": 2}
    assert (summary["outer"]["self_s"] + summary["inner"]["total_s"]
            == pytest.approx(summary["outer"]["total_s"]))
    assert 0.0 <= summary["outer"]["self_s"] < summary["inner"]["self_s"]


def test_tracer_patches_every_namespace_and_restores_them():
    import poa_lab
    from poa_lab import equilibria, harness, mechanisms, smoothness, sweeps

    original = mechanisms.run_auction
    holders = (poa_lab, mechanisms, equilibria, sweeps, smoothness, harness)
    assert all(m.run_auction is original for m in holders)
    init = mechanisms.BidProfile.__init__
    with Tracer(bench_run.TRACE_TARGETS):
        assert all(m.run_auction is not original for m in holders)
        assert mechanisms.BidProfile.__init__ is not init
    assert all(m.run_auction is original for m in holders)
    assert mechanisms.BidProfile.__init__ is init


def test_find_pure_nash_auctions_equal_profiles_evaluated(tmp_path):
    bench = SMALL["grid-pne"](str(tmp_path))
    with EquilibriumTap() as tap:
        summary, checks, taps = traced_sweep(bench, tap)
    assert all(ok for _, ok in checks), checks
    evaluated = sum(e for _, _, e in taps)
    search = summary["equilibria.find_pure_nash"]
    assert search["calls"] == 2
    assert search["children"]["mechanisms.run_auction"] == evaluated > 0


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_calls_repeat_and_outputs_match_untraced(workload, tmp_path):
    bench = SMALL[workload](str(tmp_path))
    with EquilibriumTap() as tap:
        plain_checks = bench.check(bench.sweep(), tap.take())
        first, first_checks, _ = traced_sweep(bench, tap)
        second, second_checks, _ = traced_sweep(bench, tap)
    # grid-pne's digest check compares each traced sweep with the first,
    # untraced one.
    checks = plain_checks + first_checks + second_checks
    assert all(ok for _, ok in checks), checks
    counts = [{name: s["calls"] for name, s in summary.items()}
              for summary in (first, second)]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_refuses_checkout_without_package(tmp_path, capsys):
    argv = ["--workload", "grid-pne", "--seed", "1", "--seconds", "1"]
    assert bench_run.main(argv, root=tmp_path) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == list(bench_run.END_TO_END))
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == list(bench_run.PER_LAYER))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
