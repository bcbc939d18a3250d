import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poa_lab
from poa_lab import smoothness, sweeps
from poa_lab.mechanisms import (
    AuctionInstance,
    UniformBid,
    beta_minus_i,
    check_no_overbidding,
    run_auction,
    standard_bid,
    standard_profile,
    tie_favor_bidder,
    tie_lexicographic,
    zero_bid,
)
from poa_lab.smoothness import (
    bound_table,
    expected_deviation_utility_exact,
    expected_deviation_utility_mc,
    feldman_bid,
    feldman_support,
    guarantee_lambda,
    key_lemma_margins,
    optimal_alpha,
    smooth_poa_bound,
    template_margins_feldman,
    template_margins_key_lemma,
    theorem6_da_frontier,
    theorem6_upa_check,
    verify_key_lemma,
    verify_template_inequality,
    verify_smoothness,
    weak_smooth_poa_bound,
)
from poa_lab.sweeps import (
    case_rng,
    random_instance,
    random_no_overbidding_profile,
)
from poa_lab.valuations import random_valuation, tau, valuation
from poa_lab.welfare import optimal_allocation

from helpers import random_no_overbidding_uniform_profile

E = math.e
ALPHAS = (0.5, 0.87, 1.0, 2.0)


# -- the optimal deviation scale ------------------------------------------------


def _mpmath_alpha_and_bound():
    """(-1/(W + 2), -W) for W = W_-1(-e^-2), computed at 50 digits by an
    implementation independent of ours and rounded to floats."""
    import mpmath

    with mpmath.workdps(50):
        w = mpmath.lambertw(-mpmath.e ** -2, -1)
        return float(-1 / (w + 2)), float(-w)


def test_optimal_alpha_values():
    assert optimal_alpha("discriminatory") == 1.0
    # pinned bit for bit: every uniform-price report depends on it
    assert optimal_alpha("uniform") == 0.8724532496000725
    with pytest.raises(ValueError):
        optimal_alpha("second-price")


def test_uniform_alpha_and_bound_match_mpmath():
    alpha, bound = _mpmath_alpha_and_bound()
    assert abs(optimal_alpha("uniform") - alpha) <= 2 * math.ulp(alpha)
    a = optimal_alpha("uniform")
    implied = weak_smooth_poa_bound(guarantee_lambda(a, "submodular"), 0.0, a)
    assert abs(implied - bound) <= 2 * math.ulp(bound)


def test_package_import_does_not_load_scipy():
    # importing scipy roughly doubles a process's resident memory; the
    # constants above need none of it, and no sweep or report may pay for
    # it at import time
    src = str(Path(poa_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import sys, poa_lab.sweeps, poa_lab.harness, poa_lab.smoothness; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def test_optimal_alpha_minimizes_uniform_bound():
    # grid-search oracle over (0, 2] for (alpha + 1)/(alpha(1 - e^{-1/alpha}))
    def implied(alpha):
        return (alpha + 1.0) / (alpha * (1.0 - math.exp(-1.0 / alpha)))

    best = min(implied(i / 10 ** 6) for i in range(1, 2 * 10 ** 6 + 1, 37))
    assert implied(optimal_alpha("uniform")) <= best + 1e-6


# -- bound table ---------------------------------------------------------------


def test_bound_table_reference_constants():
    rows = {(r.table, r.mechanism, r.valuation_class, r.setting): r.value
            for r in bound_table()}
    assert rows[("poa", "discriminatory", "submodular", "standard|uniform")] \
        == pytest.approx(E / (E - 1))
    assert rows[("poa", "discriminatory", "subadditive", "standard")] == 2.0
    assert rows[("poa", "discriminatory", "subadditive", "uniform")] \
        == pytest.approx(2 * E / (E - 1))
    assert rows[("poa", "uniform_price", "submodular", "standard|uniform")] \
        == pytest.approx(3.1462, abs=1e-4)
    assert rows[("poa", "uniform_price", "subadditive", "standard")] == 4.0
    assert rows[("poa", "uniform_price", "subadditive", "uniform")] \
        == pytest.approx(6.2924, abs=1e-4)
    assert rows[("composition", "discriminatory", "submodular", "sequential")] \
        == pytest.approx(2 * E / (E - 1))
    assert rows[("composition", "uniform_price", "submodular", "sequential")] \
        == pytest.approx(3.1462, abs=1e-4)


# every row of bound_table, its value by repr, as the explicit 14-row table
# gave them before the rows were derived from the certificate tables
BOUND_TABLE = (
    ("poa", "discriminatory", "submodular", "standard|uniform",
     "1.5819767068693265"),
    ("poa", "discriminatory", "subadditive", "standard", "2.0"),
    ("poa", "discriminatory", "subadditive", "uniform", "3.163953413738653"),
    ("poa", "uniform_price", "submodular", "standard|uniform",
     "3.146193220620582"),
    ("poa", "uniform_price", "subadditive", "standard", "4.0"),
    ("poa", "uniform_price", "subadditive", "uniform", "6.292386441241164"),
    ("composition", "discriminatory", "submodular", "simultaneous",
     "1.5819767068693265"),
    ("composition", "discriminatory", "submodular", "sequential",
     "3.163953413738653"),
    ("composition", "discriminatory", "subadditive", "simultaneous",
     "3.163953413738653"),
    ("composition", "discriminatory", "subadditive", "sequential",
     "6.327906827477306"),
    ("composition", "uniform_price", "submodular", "simultaneous",
     "3.146193220620582"),
    ("composition", "uniform_price", "submodular", "sequential",
     "3.146193220620582"),
    ("composition", "uniform_price", "subadditive", "simultaneous",
     "6.292386441241164"),
    ("composition", "uniform_price", "subadditive", "sequential",
     "6.292386441241164"),
)


def test_bound_table_pinned_by_repr():
    assert tuple((r.table, r.mechanism, r.valuation_class, r.setting,
                  repr(r.value)) for r in bound_table()) == BOUND_TABLE


def test_poa_bound_arithmetic():
    lam = 1 - 1 / E
    assert smooth_poa_bound(lam, 1.0) == pytest.approx(E / (E - 1))
    assert smooth_poa_bound(lam, 2.0) == pytest.approx(2 * E / (E - 1))
    assert weak_smooth_poa_bound(0.5, 0.0, 1.0) == 4.0
    a = optimal_alpha("uniform")
    assert weak_smooth_poa_bound(guarantee_lambda(a, "submodular"), 0.0, a) \
        == pytest.approx(_mpmath_alpha_and_bound()[1], abs=1e-9)


# -- the randomized deviation ---------------------------------------------------
#
# The deviation bids t * v(tau)/tau on the first x_opt slots, with t drawn
# from the density alpha/(1 - t) on [0, B], B = 1 - e^(-1/alpha).


def _upper(alpha):
    return 1.0 - math.exp(-1.0 / alpha)


def _per_unit(val, x):
    t = tau(val, x)
    return val.value(t) / t


def test_density_integrates_to_one():
    for alpha in ALPHAS:
        upper = _upper(alpha)
        n = 200000
        total = sum(alpha / (1.0 - (i + 0.5) / n * upper) for i in range(n))
        total *= upper / n
        assert total == pytest.approx(1.0, abs=1e-4)


def test_deviation_never_overbids():
    for seed in range(40):
        val = random_valuation("general", 6, 1.0, seed=seed)
        for x_opt in (1, 3, 6):
            for frac in (0.0, 0.5, 1.0):
                bid = UniformBid(frac * _upper(1.0) * _per_unit(val, x_opt),
                                 x_opt)
                assert check_no_overbidding(val, bid.expand(6))


def test_expectation_zero_when_priced_out():
    val = valuation(0, 1, 2)
    high = _upper(1.0) * _per_unit(val, 2) + 0.01
    assert expected_deviation_utility_exact(val, 2, (high, high), 1.0,
                                            "discriminatory") == 0.0


def test_expectation_against_free_slots_closed_form():
    # no opposition: wins x_opt always and pays x*t*v(tau)/tau in expectation
    for seed in range(20):
        val = random_valuation("submodular", 4, 1.0, seed=seed)
        alpha = ALPHAS[seed % 4]
        x = 3
        expect_t = 1.0 - alpha * _upper(alpha)
        closed = val.value(x) - x * _per_unit(val, x) * expect_t
        got = expected_deviation_utility_exact(val, x, (0.0,) * 4, alpha,
                                               "discriminatory")
        assert got == pytest.approx(closed, abs=1e-12)


def test_quadrature_matches_real_auction_integral():
    # midpoint rule against the actual mechanism, both pricing rules
    for idx, pricing in ((0, "discriminatory"), (1, "uniform")):
        rng = case_rng(99, idx)
        instance = random_instance(rng, "submodular", pricing, 3, 4)
        profile = random_no_overbidding_profile(instance, rng)
        x_opt = optimal_allocation(instance.valuations, instance.k).allocation
        for i, val in enumerate(instance.valuations):
            if x_opt[i] == 0:
                continue
            beta = beta_minus_i(profile, i)
            alpha = 1.0
            upper = _upper(alpha)
            per_unit = _per_unit(val, x_opt[i])
            n = 6000
            acc = 0.0
            for s in range(n):
                t = (s + 0.5) / n * upper
                trial = profile.replace(i, UniformBid(t * per_unit, x_opt[i]))
                out = run_auction(trial, instance.tie_break, pricing)
                u = val.value(out.allocation[i]) - out.payments[i]
                acc += u * alpha / (1.0 - t) * upper / n
            exact = expected_deviation_utility_exact(val, x_opt[i], beta,
                                                     alpha, pricing)
            assert exact == pytest.approx(acc, abs=5e-3)


def test_uniform_pricing_dominates_pay_as_bid():
    for idx in range(30):
        rng = case_rng(55, idx)
        instance = random_instance(rng, "general", "uniform", 4, 6)
        profile = random_no_overbidding_profile(instance, rng)
        x_opt = optimal_allocation(instance.valuations, instance.k).allocation
        for i, val in enumerate(instance.valuations):
            beta = beta_minus_i(profile, i)
            upa = expected_deviation_utility_exact(val, x_opt[i], beta, 1.0,
                                                   "uniform")
            da = expected_deviation_utility_exact(val, x_opt[i], beta, 1.0,
                                                  "discriminatory")
            assert upa >= da - 1e-12


def test_monte_carlo_within_three_sigma():
    for idx in range(10):
        rng = case_rng(66, idx)
        pricing = "discriminatory" if idx % 2 == 0 else "uniform"
        instance = random_instance(rng, "submodular", pricing, 3, 5)
        profile = random_no_overbidding_profile(instance, rng)
        x_opt = optimal_allocation(instance.valuations, instance.k).allocation
        for i, val in enumerate(instance.valuations):
            if x_opt[i] == 0:
                continue
            beta = beta_minus_i(profile, i)
            exact = expected_deviation_utility_exact(val, x_opt[i], beta, 0.87,
                                                     pricing)
            mean, stderr = expected_deviation_utility_mc(
                val, x_opt[i], beta, 0.87, pricing, samples=200000,
                seed=idx * 13 + i)
            if stderr:
                assert abs(mean - exact) <= 3 * stderr


def test_mc_units_won_equal_searchsorted():
    # repeated and zero thresholds, and bids equal to each of them: a bid
    # wins a unit only by beating its threshold strictly
    thresholds = np.array([0.0, 0.0, 0.25, 0.25, 0.25, 0.5])
    bids = np.concatenate([thresholds, [0.1, 0.3, 0.75],
                           np.random.default_rng(3).random(1000)])
    for m in range(1, len(thresholds) + 1):
        assert np.array_equal(
            smoothness._units_won(thresholds[:m], bids),
            np.searchsorted(thresholds[:m], bids, side="left"))


# -- guarantee margins -----------------------------------------------------------


def test_key_lemma_margins_non_negative():
    for idx in range(100):
        rng = case_rng(14, idx)
        pricing = "discriminatory" if idx % 2 == 0 else "uniform"
        instance = random_instance(rng, "submodular", pricing, 5, 8)
        profile = random_no_overbidding_profile(instance, rng)
        for alpha in ALPHAS:
            assert min(verify_key_lemma(instance, profile, alpha)) >= -1e-9


def test_key_lemma_rhs_zero_allocation():
    # an idle bidder's deviation and bound are both 0, with beta_1 > 0
    val = valuation(0, 1)
    assert expected_deviation_utility_exact(val, 0, (0.5,), 1.0,
                                            "uniform") == 0.0
    assert expected_deviation_utility_mc(val, 0, (0.5,), 1.0,
                                         "uniform") == (0.0, 0.0)
    instance = AuctionInstance((val, valuation(0, 0.1)), 1, "uniform",
                               tie_lexicographic())
    profile = standard_profile(1, standard_bid(0.5), standard_bid(0.05))
    assert beta_minus_i(profile, 1) == (0.5,)
    assert verify_key_lemma(instance, profile, 1.0)[1] == 0.0


def test_template_margins_with_mixed_opposition():
    rng = case_rng(15, 0)
    instance = random_instance(rng, "submodular", "discriminatory", 3, 4)
    profiles = [(random_no_overbidding_profile(instance, rng), 0.5),
                (random_no_overbidding_profile(instance, rng), 0.5)]
    for alpha in ALPHAS:
        margins = template_margins_key_lemma(instance, profiles, alpha)
        assert min(margins) >= -1e-9


def test_template_margins_subadditive_halved():
    for idx in range(60):
        rng = case_rng(16, idx)
        pricing = "discriminatory" if idx % 2 == 0 else "uniform"
        instance = random_instance(rng, "subadditive", pricing, 4, 6)
        profile = random_no_overbidding_profile(instance, rng)
        margins = template_margins_key_lemma(instance, profile, 1.0,
                                             "subadditive")
        assert min(margins) >= -1e-9


def _per_alpha_key_lemma(instance, opposing, alpha, valuation_class):
    """The two key-lemma forms as first written: everything per alpha."""
    lam = guarantee_lambda(alpha, valuation_class)
    x_opt = optimal_allocation(instance.valuations, instance.k).allocation
    per_unit, template = [], []
    for i, val in enumerate(instance.valuations):
        if len(opposing) == 1:
            beta = beta_minus_i(opposing[0][0], i)
            rhs = 0.0
            if x_opt[i] >= 1:
                rhs = (alpha * _upper(alpha) * x_opt[i] * _per_unit(val, x_opt[i])
                       - alpha * sum(beta[:x_opt[i]]))
            per_unit.append(
                expected_deviation_utility_exact(val, x_opt[i], beta, alpha,
                                                 instance.pricing) - rhs)
        lhs = 0.0
        exp_beta = 0.0
        for profile, prob in opposing:
            beta = beta_minus_i(profile, i)
            lhs += prob * expected_deviation_utility_exact(
                val, x_opt[i], beta, alpha, instance.pricing)
            exp_beta += prob * sum(beta[: x_opt[i]])
        template.append(lhs - (lam * val.value(x_opt[i]) - alpha * exp_beta))
    return tuple(per_unit), tuple(template)


def test_key_lemma_margins_match_per_alpha_loop():
    idle_bidders = 0
    for vclass in ("submodular", "subadditive"):
        for idx in range(40):
            rng = case_rng(31, idx)
            pricing = "discriminatory" if idx % 2 == 0 else "uniform"
            instance = random_instance(rng, vclass, pricing, 5, 8)
            profile = random_no_overbidding_profile(instance, rng)
            x_opt = optimal_allocation(instance.valuations,
                                       instance.k).allocation
            idle_bidders += x_opt.count(0)
            got = key_lemma_margins(instance, profile, ALPHAS, vclass)
            assert len(got) == len(ALPHAS)
            for alpha, (per_unit, template) in zip(ALPHAS, got):
                assert (per_unit, template) == _per_alpha_key_lemma(
                    instance, [(profile, 1.0)], alpha, vclass)
                assert per_unit == verify_key_lemma(instance, profile, alpha)
                assert template == template_margins_key_lemma(
                    instance, profile, alpha, vclass)
    assert idle_bidders > 0


def test_key_lemma_margins_idle_bidder():
    vals = (valuation(0, 1, 2), valuation(0, 0.1, 0.2))
    for pricing in ("discriminatory", "uniform"):
        instance = AuctionInstance(vals, 2, pricing, tie_lexicographic())
        profile = standard_profile(2, standard_bid(0.6, 0.3),
                                   standard_bid(0.1, 0.05))
        assert optimal_allocation(vals, 2).allocation == (2, 0)
        for alpha, (per_unit, template) in zip(
                ALPHAS, key_lemma_margins(instance, profile, ALPHAS)):
            assert per_unit[1] == 0.0 and template[1] == 0.0
            assert (per_unit, template) == _per_alpha_key_lemma(
                instance, [(profile, 1.0)], alpha, "submodular")


def test_key_lemma_margins_mixed_opposition():
    for vclass in ("submodular", "subadditive"):
        for idx in range(20):
            rng = case_rng(32, idx)
            pricing = "discriminatory" if idx % 2 == 0 else "uniform"
            instance = random_instance(rng, vclass, pricing, 4, 6)
            opposing = [(random_no_overbidding_profile(instance, rng), 0.3),
                        (random_no_overbidding_profile(instance, rng), 0.7)]
            got = key_lemma_margins(instance, opposing, ALPHAS, vclass)
            for alpha, (per_unit, template) in zip(ALPHAS, got):
                assert template == _per_alpha_key_lemma(
                    instance, opposing, alpha, vclass)[1]
                # the per-unit bound is linear in the opposing distribution
                mixed = [sum(prob * verify_key_lemma(instance, p, alpha)[i]
                             for p, prob in opposing)
                         for i in range(instance.n)]
                assert per_unit == pytest.approx(mixed, abs=1e-12)


def _count_kernel_steps(monkeypatch):
    """Counts of the rows the kernel packs, optimises and computes every
    beta_-i of.  Rows are counted where their curves are packed, which
    sweeps drawing rows and object cases read through _row both reach."""
    calls = {"packed": 0, "optimised": 0, "betas": 0}
    packed = smoothness._packed
    optimal_allocations = smoothness.optimal_allocations
    betas_minus = smoothness._betas_minus

    def counted_packed(rows, n, k, part, *rest):
        calls["packed"] += len(rows) if part == 1 else 0
        return packed(rows, n, k, part, *rest)

    def counted_optimum(values, k):
        calls["optimised"] += len(k)
        return optimal_allocations(values, k)

    def counted_betas(bids, k):
        calls["betas"] += len(k)
        return betas_minus(bids, k)

    monkeypatch.setattr(smoothness, "_packed", counted_packed)
    monkeypatch.setattr(smoothness, "optimal_allocations", counted_optimum)
    monkeypatch.setattr(smoothness, "_betas_minus", counted_betas)
    return calls


def test_key_lemma_sweep_one_optimum_per_case(monkeypatch):
    calls = _count_kernel_steps(monkeypatch)
    # 100 cases: one full chunk and a partial one
    result = sweeps.key_lemma_sweep(100, ALPHAS, "subadditive", seed=33)
    assert result.cases == 100 and result.passed
    assert calls == {"packed": 100, "optimised": 100, "betas": 100}


def test_key_lemma_margins_reject_non_positive_alpha():
    rng = case_rng(34, 0)
    instance = random_instance(rng, "submodular", "uniform", 3, 4)
    profile = random_no_overbidding_profile(instance, rng)
    val = instance.valuations[0]
    beta = beta_minus_i(profile, 0)
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError):
            verify_key_lemma(instance, profile, alpha)
        with pytest.raises(ValueError):
            key_lemma_margins(instance, profile, (1.0, alpha))
        with pytest.raises(ValueError):
            verify_smoothness([(instance, profile)], alpha, "weakly_smooth",
                              "submodular")
        with pytest.raises(ValueError):
            expected_deviation_utility_exact(val, 1, beta, alpha, "uniform")
        with pytest.raises(ValueError):
            expected_deviation_utility_mc(val, 1, beta, alpha, "uniform",
                                          samples=10)
    for x_opt in (-1, instance.k + 1):
        with pytest.raises(ValueError):
            expected_deviation_utility_exact(val, x_opt, beta, 1.0, "uniform")
        with pytest.raises(ValueError):
            expected_deviation_utility_mc(val, x_opt, beta, 1.0, "uniform",
                                          samples=10)


@pytest.fixture
def no_deviation_work(monkeypatch):
    """Fails a test if either expectation starts work: both compute
    v(tau)/tau first."""
    def work(*args):
        raise AssertionError("the deviation input was not checked first")

    monkeypatch.setattr(smoothness, "_per_unit_values", work)


EXPECTATIONS = {
    "exact": expected_deviation_utility_exact,
    "mc": lambda *args: expected_deviation_utility_mc(*args, samples=10),
}


@pytest.mark.parametrize("expectation", sorted(EXPECTATIONS))
def test_deviation_rejects_an_unknown_pricing_rule(expectation,
                                                   no_deviation_work):
    with pytest.raises(ValueError, match="pricing rule 'bogus'"):
        EXPECTATIONS[expectation](valuation(0.0, 1.0, 1.5), 2, (0.2, 0.4),
                                  1.0, "bogus")


@pytest.mark.parametrize("expectation", sorted(EXPECTATIONS))
def test_deviation_rejects_a_nan_threshold(expectation, no_deviation_work):
    with pytest.raises(ValueError, match="finite and non-negative"):
        EXPECTATIONS[expectation](valuation(0.0, 1.0, 1.5), 2,
                                  (0.2, math.nan), 1.0, "uniform")


@pytest.mark.parametrize("expectation", sorted(EXPECTATIONS))
def test_deviation_rejects_an_infinite_threshold(expectation,
                                                 no_deviation_work):
    with pytest.raises(ValueError, match="finite and non-negative"):
        EXPECTATIONS[expectation](valuation(0.0, 1.0, 1.5), 1,
                                  (0.2, math.inf), 1.0, "uniform")


@pytest.mark.parametrize("expectation", sorted(EXPECTATIONS))
def test_deviation_rejects_a_negative_threshold(expectation,
                                                no_deviation_work):
    with pytest.raises(ValueError, match="finite and non-negative"):
        EXPECTATIONS[expectation](valuation(0.0, 1.0, 1.5), 2, (-0.1, 0.4),
                                  1.0, "discriminatory")


@pytest.mark.parametrize("expectation", sorted(EXPECTATIONS))
def test_deviation_rejects_fewer_thresholds_than_units(expectation,
                                                       no_deviation_work):
    with pytest.raises(ValueError, match="fewer than x_opt"):
        EXPECTATIONS[expectation](valuation(0.0, 1.0, 1.5), 2, (0.2,), 1.0,
                                  "discriminatory")


def test_empty_opposition_rejected():
    rng = case_rng(34, 1)
    instance = random_instance(rng, "submodular", "discriminatory", 3, 4)
    with pytest.raises(ValueError):
        key_lemma_margins(instance, [], ALPHAS)
    with pytest.raises(ValueError):
        template_margins_key_lemma(instance, [], 1.0)
    with pytest.raises(ValueError):
        template_margins_feldman(instance, [])


def test_verify_smoothness_small_sweeps():
    cases_da = []
    cases_up = []
    for idx in range(40):
        rng = case_rng(17, idx)
        inst_da = random_instance(rng, "submodular", "discriminatory", 4, 6)
        cases_da.append((inst_da, random_no_overbidding_profile(inst_da, rng)))
        inst_up = random_instance(rng, "submodular", "uniform", 4, 6)
        if idx % 2 == 0:
            prof = random_no_overbidding_uniform_profile(inst_up, rng)
        else:
            prof = random_no_overbidding_profile(inst_up, rng)
        cases_up.append((inst_up, prof))
    cert = verify_smoothness(cases_da, 1.0, "smooth", "submodular")
    assert cert.verified
    assert cert.implied_poa == pytest.approx(E / (E - 1))
    a = optimal_alpha("uniform")
    cert_up = verify_smoothness(cases_up, a, "weakly_smooth", "submodular")
    assert cert_up.verified
    assert cert_up.implied_poa == pytest.approx(3.1462, abs=1e-3)


def test_verify_smoothness_one_optimum_per_case(monkeypatch):
    calls = _count_kernel_steps(monkeypatch)
    for kind, pricing in (("smooth", "discriminatory"),
                          ("weakly_smooth", "uniform")):
        cases = []
        for idx in range(20):
            rng = case_rng(35, idx)
            instance = random_instance(rng, "submodular", pricing, 5, 6)
            cases.append((instance,
                          random_no_overbidding_profile(instance, rng)))
        calls.update(packed=0, optimised=0, betas=0)
        assert verify_smoothness(cases, 1.0, kind, "submodular").verified
        assert calls == dict.fromkeys(calls, len(cases))


def test_verify_smoothness_rejects_mismatches():
    rng = case_rng(18, 0)
    inst = random_instance(rng, "general", "discriminatory", 3, 4)
    prof = random_no_overbidding_profile(inst, rng)
    with pytest.raises(ValueError):
        verify_smoothness([(inst, prof)], 1.0, "smooth", "submodular")
    inst_up = random_instance(rng, "submodular", "uniform", 3, 4)
    prof_up = random_no_overbidding_profile(inst_up, rng)
    with pytest.raises(ValueError):
        verify_smoothness([(inst_up, prof_up)], 1.0, "smooth", "submodular")
    inst_da = random_instance(rng, "submodular", "discriminatory", 3, 4)
    prof_da = random_no_overbidding_profile(inst_da, rng)
    with pytest.raises(ValueError, match="apply to uniform pricing"):
        verify_smoothness([(inst_da, prof_da)], 1.0, "weakly_smooth",
                          "submodular")


@pytest.mark.parametrize("kind, vclass", [
    ("smoth", "submodular"), ("smooth", "general"),
    ("weakly_smooth", "submodualr")])
def test_unknown_kind_or_class_is_a_value_error(kind, vclass):
    """No third check runs under a misspelled kind or an unlisted class."""
    rng = case_rng(18, 0)
    inst = random_instance(rng, "submodular", "discriminatory", 3, 4)
    prof = random_no_overbidding_profile(inst, rng)
    with pytest.raises(ValueError, match="unknown"):
        verify_smoothness([(inst, prof)], 1.0, kind, vclass)
    with pytest.raises(ValueError, match="unknown"):
        sweeps.smoothness_sweep(1, 1.0, kind, vclass, seed=1)
    if kind == "smooth":
        with pytest.raises(ValueError, match="unknown valuation class"):
            guarantee_lambda(1.0, vclass)


# -- resampled-opposition deviations ----------------------------------------------


def test_feldman_keeps_everything_at_full_demand():
    beta = (0.1, 0.2, 0.3)
    bid = feldman_bid(beta, 3, "discriminatory", valuation(0, 1, 2, 3),
                      tick=0.01)
    assert bid.values == pytest.approx((0.31, 0.21, 0.11))


def test_feldman_bid_non_increasing_and_support_probs():
    rng = case_rng(19, 0)
    instance = random_instance(rng, "subadditive", "uniform", 3, 5)
    profile = random_no_overbidding_profile(instance, rng)
    beta = beta_minus_i(profile, 0)
    support = feldman_support([(beta, 1.0)], 2, "uniform",
                              instance.valuations[0], tick=1e-9)
    assert sum(p for _, p in support) == 1.0
    for bid, _ in support:
        vec = bid.values
        assert all(vec[j + 1] <= vec[j] for j in range(len(vec) - 1))


def test_feldman_complement_never_overbids():
    for idx in range(200):
        rng = case_rng(20, idx)
        instance = random_instance(rng, "subadditive", "uniform", 4, 6)
        profile = random_no_overbidding_profile(instance, rng)
        x_opt = optimal_allocation(instance.valuations, instance.k).allocation
        for i, val in enumerate(instance.valuations):
            if x_opt[i] == 0:
                continue
            beta = beta_minus_i(profile, i)
            # every prefix of the kept block, not only the whole block
            assert check_no_overbidding(
                val, feldman_bid(beta, x_opt[i], "uniform", val))


def test_feldman_template_margins():
    for idx in range(60):
        rng = case_rng(77, idx)
        pricing = "discriminatory" if idx % 2 == 0 else "uniform"
        instance = random_instance(rng, "subadditive", pricing, 4, 5)
        profile = random_no_overbidding_profile(instance, rng)
        margins = template_margins_feldman(instance, profile, tick=1e-9)
        assert min(margins) >= -instance.k * 1e-9 - 1e-9



def _reference_feldman_margins(instance, opposing, tick):
    """template_margins_feldman with every deviation and threshold taken
    from a full auction, in the same order."""
    x_opt = optimal_allocation(instance.valuations, instance.k).allocation
    margins = []
    for i, val in enumerate(instance.valuations):
        nothing = zero_bid(instance.k)
        betas = [(run_auction(profile.replace(i, nothing), instance.tie_break,
                              instance.pricing).winning_bids, p)
                 for profile, p in opposing]
        x = x_opt[i]
        lhs = 0.0
        if x >= 1:
            for bid, p_bid in feldman_support(betas, x, instance.pricing, val,
                                              tick):
                for profile, p_opp in opposing:
                    out = run_auction(profile.replace(i, bid),
                                      instance.tie_break, instance.pricing)
                    lhs += p_bid * p_opp * (val.value(out.allocation[i])
                                            - out.payments[i])
        exp_beta = sum(p * sum(beta[:x]) for beta, p in betas)
        margins.append(verify_template_inequality(lhs, val.value(x), exp_beta,
                                                  0.5, 1.0))
    return tuple(margins)


def test_feldman_margins_match_auction_oracle():
    for idx in range(40):
        rng = case_rng(78, idx)
        pricing = "discriminatory" if idx % 2 == 0 else "uniform"
        instance = random_instance(rng, "subadditive", pricing, 4, 5)
        # a mixed opposition with unequal weights
        opposing = [(random_no_overbidding_profile(instance, rng), p)
                    for p in (0.5, 0.25, 0.125, 0.125)]
        assert (template_margins_feldman(instance, opposing, tick=1e-9)
                == _reference_feldman_margins(instance, opposing, 1e-9))


def test_feldman_point_distribution_exact():
    # opposition concentrated on one profile: the whole check is closed-form
    vals = (valuation(0, 0.6, 1.0), valuation(0, 0.5, 1.0))
    instance = AuctionInstance(vals, 2, "discriminatory", tie_lexicographic())
    profile = standard_profile(2, zero_bid(2), standard_bid(0.4, 0.3))
    margins = template_margins_feldman(instance, profile, tick=1e-9)
    # bidder 0: x_opt = 1 vs thresholds (0.3, 0.4): resampled bid keeps 0.3;
    # winning one unit at 0.3 + tick gives value 0.6; rhs = 0.5*0.6 - 0.3
    assert margins[0] == pytest.approx((0.6 - 0.3) - (0.3 - 0.3), abs=1e-6)


# -- template frontiers ------------------------------------------------------------


def test_theorem6_upa_scan():
    from poa_lab.instances import theorem6_upa_instance
    named = theorem6_upa_instance()
    result = theorem6_upa_check(named.instance,
                                named.profile("lower-bound-witness"), 1e-3)
    assert result["exact_half"]
    assert result["total"] == 0.5
    assert result["sup_utilities"] == (0.5, 0.0)
    assert result["beta_1"] == 0.5
    assert result["opt"] == 1.0


def test_theorem6_upa_cut_keeps_a_bid_of_exactly_v1():
    # against (0.4375, 1) the only profitable bid on the 0.125 grid is 0.5:
    # it wins the unit at price 0.4375, and is exactly v(1)
    for v1, sup in ((0.5, 0.0625), (0.5 - 1e-10, 0.0)):
        instance = AuctionInstance((valuation(0, v1), valuation(0, 0.4375)),
                                   1, "uniform", tie_favor_bidder(1))
        profile = standard_profile(1, standard_bid(0.0), standard_bid(0.4375))
        result = theorem6_upa_check(instance, profile, 0.125)
        assert result["sup_utilities"][0] == sup


def test_theorem6_da_frontier_holds():
    from poa_lab.instances import theorem6_da_instance
    for k, mu in ((20, 1.0), (50, 1.0), (50, 0.5)):
        named = theorem6_da_instance(k, mu)
        res = theorem6_da_frontier(named.instance,
                                   named.profile("lower-bound-witness"), mu)
        assert res["holds"], (k, mu, res)


@pytest.mark.parametrize("past, holds", [(-1e-9, True), (1e-9, False)])
def test_theorem6_da_frontier_slack_is_1e_6(monkeypatch, past, holds):
    """lhs <= bound + 1e-6 is the frontier's one slack: a patched sup
    utility puts lhs 1e-9 inside it, then 1e-9 past it."""
    from poa_lab.instances import theorem6_da_instance

    named = theorem6_da_instance(20, 1.0)
    profile = named.profile("lower-bound-witness")
    res = theorem6_da_frontier(named.instance, profile, 1.0)
    target = res["bound"] + 1e-6 + past - res["sum_beta"]
    monkeypatch.setattr(smoothness, "_sup_utility",
                        lambda instance, profile, i, vectors:
                        target if i == 0 else 0.0)
    res = theorem6_da_frontier(named.instance, profile, 1.0)
    assert abs(res["lhs"] - (res["bound"] + 1e-6 + past)) < 1e-12
    assert res["holds"] is holds


def test_equalizing_curve_is_tight_for_the_guarantee():
    # against the equalizing curve at alpha = 1 every inequality in the
    # margin derivation binds: the guarantee cannot be improved
    from poa_lab.instances import theorem6_da_instance

    for k in (10, 50, 200):
        named = theorem6_da_instance(k, 1.0)
        margins = verify_key_lemma(named.instance,
                                   named.profile("lower-bound-witness"), 1.0)
        assert abs(margins[0]) <= 1e-9
        assert margins[0] >= -1e-9
