"""Smoke test of scripts/bench_compare.py: its per-layer script runs
against this checkout's package and prints one JSON object of costs and
sweep memory peaks."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_compare():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", ROOT / "scripts" / "bench_compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layers_script_runs_against_src():
    bench_compare = _bench_compare()
    # layers() runs the LAYERS script in a fresh process on ROOT / "src"
    costs = bench_compare.layers(ROOT)
    assert {"reference_loop_us",
            "find_pure_nash_k2_us", "find_pure_nash_k3_us",
            "find_pure_nash_k3_cold_us", "find_pure_nash_sliced_k3_us",
            "find_pure_nash_uniform_k3_us",
            "find_pure_nash_nob_k3_us",
            "search_candidates_k3_us",
            "block_k3_us", "block_allocation_k3_us", "block_utilities_k3_us",
            "deviation_outcomes_n5_k6_c12_us", "beta_minus_i_n5_k6_us",
            "run_auction_lex_n5_k6_us", "run_auction_explicit_n5_k6_us",
            "best_response_lex_n5_k6_us", "best_response_explicit_n5_k6_us",
            "is_pure_nash_lex_n5_k6_us",
            "is_pure_nash_explicit_n5_k6_us",
            "smoothness_sweep_500_case_us", "key_lemma_sweep_500_case_us",
            "key_lemma_sweep_subadditive_500_case_us",
            "smoothness_sweep_subadditive_500_case_us",
            "weak_smoothness_sweep_subadditive_500_case_us",
            "random_valuation_subadditive_k8_us",
            "random_valuation_submodular_k8_us",
            "random_valuation_general_k3_us",
            "random_instance_subadditive_n5_k8_us",
            "random_instance_submodular_n5_k8_us",
            "proposition1_sweep_250_case_us",
            "lemma1_conversion_sweep_500_case_us",
            "closed_form_regrets_row_us",
            "smoothness_sweep_1000_peak_kib",
            "key_lemma_sweep_1000_peak_kib"} == set(costs)
    assert all(0.0 < cost < math.inf for cost in costs.values())


def test_summary_gives_each_side_its_own_metrics():
    summary = _bench_compare().summary(
        {"before": [{"a": 1.0}, {"a": 3.0}, {"a": 2.0}],
         "after": [{"a": 1.0, "b": 4.0}, {"a": 1.0, "b": 8.0}]})
    assert summary["medians"] == {"before": {"a": 2.0},
                                  "after": {"a": 1.0, "b": 6.0}}
    assert summary["quartiles"]["before"]["a"] == [1.5, 2.0, 2.5]


@pytest.mark.parametrize("specs", [["a=1"], ["a=1", "b=2"]])
def test_schedule_alternates_the_first_side_run_by_run(specs):
    bench_compare = _bench_compare()
    runs = list(bench_compare.schedule(specs))
    slots = [runs[i:i + 2] for i in range(0, len(runs), 2)]
    # each slot is one spec on both sides, back to back
    assert all(a[:2] == b[:2] and {a[2], b[2]} == {"before", "after"}
               for a, b in slots)
    firsts = [a[2] for a, _ in slots]
    assert all(x != y for x, y in zip(firsts, firsts[1:len(specs) + 1]))
    for spec in specs + [None]:
        led = [a[2] for a, _ in slots if a[1] == spec]
        assert len(led) == bench_compare.PAIRS
        assert all(x != y for x, y in zip(led, led[1:]))
