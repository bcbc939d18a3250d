"""Acceptance suite: every certification target at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Budgets are wall-clock upper bounds on this machine class.
"""

import math
import time

import pytest

from poa_lab.equilibria import is_bayes_nash, is_pure_nash
from poa_lab.instances import (
    appendix_c_bayesian,
    theorem4_instance,
    theorem6_da_instance,
    theorem6_upa_instance,
)
from poa_lab.mechanisms import allocate, social_welfare
from poa_lab.smoothness import (
    bound_table,
    optimal_alpha,
    theorem6_da_frontier,
    theorem6_upa_check,
)
from poa_lab.sweeps import (
    dp_vs_enumeration_sweep,
    key_lemma_sweep,
    lemma1_conversion_sweep,
    mc_vs_exact_sweep,
    pne_efficiency_sweep,
    proposition1_sweep,
    smoothness_sweep,
)
from poa_lab.equilibria import bayesian_poa
from poa_lab.welfare import optimal_allocation, poa_ratio

E = math.e
ALPHAS = (0.5, 0.87, 1.0, 2.0)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"PASS {self.name} ({self.elapsed:.2f}s / "
                  f"budget {self.seconds:.0f}s)")
            assert self.elapsed < self.seconds, \
                f"{self.name} exceeded runtime budget"


def test_criterion_1_bound_constants():
    with Budget("criterion 1: bound-table constants", 1.0):
        rows = {(r.table, r.mechanism, r.valuation_class, r.setting): r.value
                for r in bound_table()}
        assert rows[("poa", "discriminatory", "submodular",
                     "standard|uniform")] == pytest.approx(1.58198, abs=1e-4)
        assert rows[("poa", "discriminatory", "subadditive", "uniform")] \
            == pytest.approx(3.16395, abs=1e-4)
        assert rows[("poa", "uniform_price", "submodular",
                     "standard|uniform")] == pytest.approx(3.1462, abs=1e-4)
        assert rows[("poa", "uniform_price", "subadditive", "uniform")] \
            == pytest.approx(6.2924, abs=1e-4)
        # composition entries follow the (lambda, mu) -> bound arithmetic
        assert rows[("composition", "discriminatory", "submodular",
                     "simultaneous")] == pytest.approx(E / (E - 1))
        assert rows[("composition", "discriminatory", "submodular",
                     "sequential")] == pytest.approx(2 * E / (E - 1))
        assert rows[("composition", "discriminatory", "subadditive",
                     "sequential")] == pytest.approx(4 * E / (E - 1))
        assert rows[("composition", "uniform_price", "submodular",
                     "sequential")] == pytest.approx(3.1462, abs=1e-4)
        assert rows[("composition", "uniform_price", "subadditive",
                     "sequential")] == pytest.approx(6.2924, abs=1e-4)


def test_criterion_2_demand_reduction_lower_bound():
    with Budget("criterion 2: demand-reduction equilibrium k=10", 10.0):
        k = 10
        named = theorem4_instance(k, eps=1e-6)
        report = is_pure_nash(named.profile("equilibrium"), named.instance,
                              named.grid)
        assert report.max_regret <= 1e-9
        opt = optimal_allocation(named.instance.valuations, k)
        out = allocate(named.profile("equilibrium"), named.instance.tie_break)
        sw = social_welfare(named.instance.valuations, out.allocation)
        poa = poa_ratio(opt.value, sw)
        assert poa >= 2 * k / (k + 1) - 1e-4
        assert poa >= 1.8181


def test_criterion_3_bayesian_example():
    with Budget("criterion 3: discretized Bayesian equilibrium", 5.0):
        game, strat = appendix_c_bayesian(alpha=0.0014, tick=1e-3)
        report = is_bayes_nash(game, strat)
        assert report.max_regret <= 1e-12
        poa = bayesian_poa(game, strat)
        assert 1.0004 <= poa <= 1.0005


def test_criterion_4_deviation_guarantee_sweeps():
    with Budget("criterion 4: randomized-deviation margins", 120.0):
        sub = key_lemma_sweep(1000, ALPHAS, "submodular", seed=1001,
                              n_max=5, k_max=8)
        assert sub.cases == 1000
        assert sub.min_margin >= -1e-9
        sad = key_lemma_sweep(1000, ALPHAS, "subadditive", seed=1002,
                              n_max=5, k_max=8)
        assert sad.cases == 1000
        assert sad.min_margin >= -1e-9


def test_criterion_5_smoothness_certificates():
    with Budget("criterion 5: smoothness certificates", 120.0):
        cert_da = smoothness_sweep(1000, 1.0, "smooth", "submodular",
                                   seed=1003)
        assert cert_da.verified
        assert cert_da.implied_poa == pytest.approx(E / (E - 1), abs=1e-4)
        cert_da_sub = smoothness_sweep(1000, 1.0, "smooth", "subadditive",
                                       seed=1004)
        assert cert_da_sub.verified
        a = optimal_alpha("uniform")
        cert_up = smoothness_sweep(1000, a, "weakly_smooth", "submodular",
                                   seed=1005)
        assert cert_up.verified
        assert cert_up.implied_poa == pytest.approx(3.1462, abs=1e-3)
        cert_up_sub = smoothness_sweep(1000, a, "weakly_smooth", "subadditive",
                                       seed=1006)
        assert cert_up_sub.verified


def test_criterion_6_template_frontiers():
    with Budget("criterion 6: template impossibility frontiers", 30.0):
        k, mu = 50, 1.0
        named = theorem6_da_instance(k, mu)
        res = theorem6_da_frontier(named.instance,
                                   named.profile("lower-bound-witness"), mu)
        bound = (1 - 1 / E + (1 / k) * (1 - 1 / E)) * k
        assert res["bound"] == pytest.approx(bound, abs=1e-9)
        assert res["lhs"] <= bound + 1e-6
        named = theorem6_upa_instance()
        scan = theorem6_upa_check(named.instance,
                                  named.profile("lower-bound-witness"),
                                  tick=1e-3)
        assert scan["total"] == 0.5
        assert scan["exact_half"]


def test_criterion_7_grid_equilibrium_efficiency():
    with Budget("criterion 7: exhaustive grid-equilibrium efficiency", 300.0):
        result = pne_efficiency_sweep(50, seed=1007, tick=0.125, max_bid=1.0)
        assert result.instances == 50
        assert result.equilibria > 0
        assert result.passed, result


def test_criterion_8_tie_break_constructions():
    with Budget("criterion 8: equilibrium constructions and conversion",
                120.0):
        assert proposition1_sweep(50, seed=1008, eps_values=(0.1, 0.01)) == 50
        assert lemma1_conversion_sweep(100, seed=1009) == 100


def test_criterion_9_oracle_equivalence():
    with Budget("criterion 9: oracle agreement", 120.0):
        assert dp_vs_enumeration_sweep(500, seed=1010) == 500
        worst = mc_vs_exact_sweep(100, seed=1011, samples=10 ** 6)
        assert worst <= 3.0
