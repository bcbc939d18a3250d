import pytest

from poa_lab import equilibria
from poa_lab.cli import main as cli_main
from poa_lab.equilibria import is_bayes_nash, lemma5_structure
from poa_lab.instances import (
    appendix_c_bayesian,
    REGISTRY,
    default_proposition1_instance,
    proposition1,
    theorem4_instance,
    theorem6_da_instance,
    theorem6_upa_instance,
)
from poa_lab.mechanisms import (
    AuctionInstance,
    allocate,
    run_auction,
    social_welfare,
    tie_lexicographic,
)
from poa_lab.sweeps import lemma1_conversion_sweep, proposition1_sweep
from poa_lab.valuations import Valuation, random_valuation
from poa_lab.welfare import optimal_allocation, poa_ratio
from dataclasses import replace


@pytest.mark.parametrize("instance_id", sorted(REGISTRY))
def test_all_named_instances_verify(instance_id):
    for check in REGISTRY[instance_id][1]():
        assert check.passed, (instance_id, check)


def test_theorem4_expected_quantities_reproduce():
    named = theorem4_instance(10, 1e-6)
    inst = named.instance
    opt = optimal_allocation(inst.valuations, inst.k)
    assert opt.value == named.expected["opt_value"]
    out = allocate(named.profile("equilibrium"), inst.tie_break)
    sw = social_welfare(inst.valuations, out.allocation)
    assert sw == pytest.approx(named.expected["eq_welfare"], abs=1e-12)
    assert poa_ratio(opt.value, sw) == pytest.approx(named.expected["poa"],
                                                     abs=1e-12)
    assert named.expected["poa_limit"] == pytest.approx(20 / 11)
    assert set(named.provenance) == set(named.expected)


def test_theorem4_parameter_validation():
    with pytest.raises(ValueError):
        theorem4_instance(2)
    with pytest.raises(ValueError):
        theorem4_instance(5, eps=0.0)


def test_theorem6_da_curve_spot_values():
    import math
    for mu in (0.5, 1.0, 2.0):
        named = theorem6_da_instance(30, mu)
        curve = named.profile("lower-bound-witness").vector(1)
        assert curve[0] == pytest.approx(1 - math.exp(-1 / mu), abs=1e-12)
        positive = [v for v in curve if v > 0]
        assert len(positive) <= 30 * (1 - math.exp(-1 / mu)) + 1
        assert positive == sorted(positive, reverse=True)


def test_theorem6_upa_expected():
    named = theorem6_upa_instance()
    out = run_auction(named.profile("lower-bound-witness"),
                      named.instance.tie_break, "uniform")
    assert out.allocation == (0, 1)
    assert out.payments == (0.0, 0.5)
    assert social_welfare(named.instance.valuations, out.allocation) \
        == named.expected["eq_welfare"]


def test_appendix_c_alpha_threshold():
    # the profile stops being an equilibrium once alpha > 1.499 * tick
    game, strat = appendix_c_bayesian(alpha=0.0014)
    assert is_bayes_nash(game, strat).max_regret == 0.0
    game_hot, strat_hot = appendix_c_bayesian(alpha=0.0025)
    assert is_bayes_nash(game_hot, strat_hot).max_regret > 0.0


def test_proposition1_merged_marginal_example():
    inst = default_proposition1_instance()
    profile, tie, bumped = proposition1(inst)
    assert bumped == []
    assert profile.vector(0) == (3.0, 3.0)
    assert profile.vector(1) == (3.0, 3.0)
    out = allocate(profile, tie)
    assert out.allocation == (2, 0)
    structure = lemma5_structure(profile, replace(inst, tie_break=tie))
    assert structure["d"] == 3.0
    assert structure["winning_bids_equal_d"]


def test_proposition1_requires_submodular_and_competition():
    jump = Valuation((0.0, 1.0, 1.0, 2.0))
    other = random_valuation("submodular", 3, 1.0, seed=0)
    inst = AuctionInstance((jump, other), 3, "discriminatory",
                           tie_lexicographic())
    with pytest.raises(ValueError):
        proposition1(inst)
    lonely = AuctionInstance((other,), 3, "discriminatory", tie_lexicographic())
    with pytest.raises(ValueError):
        proposition1(lonely)


def test_proposition1_epsilon_profile_unambiguous():
    inst = default_proposition1_instance()
    base, _, (bumped, tiny) = proposition1(inst, (0.1, 1e-12))
    # exactly k bids sit strictly above the common level: no ties remain
    level = base.vector(0)[0]
    raised = [v for i in range(inst.n) for v in bumped.vector(i) if v > level]
    assert len(raised) == inst.k
    for eps in (0.0, -0.1):
        with pytest.raises(ValueError, match="eps"):
            proposition1(inst, (eps,))
    for i in range(inst.n):
        assert tiny.vector(i) == pytest.approx(base.vector(i), abs=1e-11)


def test_proposition1_random_sweep():
    assert proposition1_sweep(15, seed=101) == 15


def test_lemma1_conversion_sweep():
    assert lemma1_conversion_sweep(15, seed=102) == 15


def test_lemma1_conversion_sweep_fails_on_a_shifted_price(monkeypatch):
    # the converter sees every converted (uniform-interface) profile price
    # one tick higher; its own check is the sweep's only price check
    real = equilibria.allocate

    def shifted(profile, tie):
        out = real(profile, tie)
        if profile.interface == "uniform":
            out = replace(out, uniform_price=out.uniform_price + 1e-3)
        return out

    monkeypatch.setattr(equilibria, "allocate", shifted)
    with pytest.raises(AssertionError, match="uniform price"):
        lemma1_conversion_sweep(15, seed=102)


def test_named_instance_json_shape():
    named = theorem4_instance(5, 1e-6)
    data = named.to_json()
    assert data["id"] == "theorem4"
    assert data["instance"]["k"] == 5
    assert data["profiles"][0]["role"] == "equilibrium"
    assert set(data["expected"]) == set(data["provenance"])


def test_list_instances_contents(capsys):
    assert cli_main(["list-instances"]) == 0
    ids = [line.split(":")[0]
           for line in capsys.readouterr().out.splitlines()]
    assert "theorem4" in ids and "appendix-c" in ids
    assert ids == sorted(REGISTRY)


def test_measured_poa_below_certified_bounds():
    # every verified equilibrium sits under the bound its class certifies
    from poa_lab.smoothness import bound_table
    from poa_lab.equilibria import bayesian_poa

    bounds = {(r.mechanism, r.valuation_class, r.setting): r.value
              for r in bound_table() if r.table == "poa"}
    named = theorem4_instance(10, 1e-6)
    out = allocate(named.profile("equilibrium"), named.instance.tie_break)
    sw = social_welfare(named.instance.valuations, out.allocation)
    opt = optimal_allocation(named.instance.valuations, named.instance.k)
    measured = poa_ratio(opt.value, sw)
    assert measured <= bounds[("uniform_price", "subadditive", "uniform")] + 1e-9
    game, strat = appendix_c_bayesian()
    assert bayesian_poa(game, strat) \
        <= bounds[("discriminatory", "submodular", "standard|uniform")] + 1e-9
