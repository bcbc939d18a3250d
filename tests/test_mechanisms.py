import itertools
import math
import random

import numpy as np
import pytest

from poa_lab.mechanisms import (
    AuctionInstance,
    BidProfile,
    SearchCandidates,
    StandardBid,
    UniformBid,
    allocate,
    beta_minus_i,
    block_allocation,
    block_utilities,
    check_no_overbidding,
    deviation_outcomes,
    run_auction,
    social_welfare,
    standard_bid,
    standard_profile,
    tie_explicit,
    tie_favor_bidder,
    tie_favor_last,
    tie_lexicographic,
    tie_ranks,
    uniform_profile,
    uniformize_profile,
    zero_bid,
)
from poa_lab.valuations import Valuation, flat_valuation, random_valuation, valuation

from helpers import random_profile, random_tie, utilities


# -- bids ------------------------------------------------------------------


def test_expand_uniform():
    assert UniformBid(2.0, 2).expand(3).values == (2.0, 2.0, 0.0)
    assert UniformBid(0.5, 1).expand(1).values == (0.5,)
    k = 5
    flat = UniformBid(1 / (k - 1), k).expand(k)
    assert flat.values == (1 / (k - 1),) * k


def test_standard_bid_must_be_non_increasing():
    with pytest.raises(ValueError):
        StandardBid((1.0, 2.0))
    with pytest.raises(ValueError):
        StandardBid((-0.5,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bids_reject_non_finite_values(bad):
    with pytest.raises(ValueError):
        StandardBid((bad,))
    with pytest.raises(ValueError):
        StandardBid((1.0, bad))
    with pytest.raises(ValueError):
        UniformBid(bad, 1)
    with pytest.raises(ValueError):
        BidProfile.from_json({"interface": "standard", "k": 1,
                              "bids": [[bad]]})


def test_profile_interface_enforced():
    with pytest.raises(ValueError):
        BidProfile((UniformBid(1.0, 1),), "standard", 2)
    with pytest.raises(ValueError):
        BidProfile((standard_bid(1.0, 0.0),), "uniform", 2)


# -- allocation ------------------------------------------------------------


def test_allocate_single_bidder():
    out = allocate(standard_profile(3, standard_bid(5, 4, 3)),
                   tie_lexicographic())
    assert out.allocation == (3,)
    assert out.winning_bids == (3.0, 4.0, 5.0)
    assert out.uniform_price == 0.0


def test_allocate_two_bidders_oracle():
    # all marginal bids {3,1,2,2}: top-2 {3,2}, price = third highest = 2
    prof = standard_profile(2, standard_bid(3, 1), standard_bid(2, 2))
    out = allocate(prof, tie_lexicographic())
    assert out.allocation == (1, 1)
    assert out.winning_bids == (2.0, 3.0)
    assert out.uniform_price == 2.0


def test_allocate_single_unit_bids_everyone_wins_one():
    k = 5
    bids = [UniformBid(1.0, 1), UniformBid(1 / k, 1)] + [
        UniformBid(1e-6, 1) for _ in range(k - 2)]
    out = allocate(uniform_profile(k, *bids), tie_lexicographic())
    assert out.allocation == (1,) * k
    assert out.uniform_price == 0.0


def test_zero_bids_never_win():
    prof = standard_profile(3, standard_bid(1, 0, 0), zero_bid(3))
    out = allocate(prof, tie_lexicographic())
    assert out.allocation == (1, 0)
    assert sum(out.allocation) == 1
    assert out.winning_bids == (0.0, 0.0, 1.0)


def test_tie_break_rules_pick_winner():
    prof = standard_profile(1, standard_bid(0.5), standard_bid(0.5))
    for tie, winner in ((tie_lexicographic(), 0), (tie_favor_bidder(1), 1),
                        (tie_favor_last(), 1)):
        assert allocate(prof, tie).allocation[winner] == 1


def test_allocation_monotone_in_own_bid():
    rng = random.Random(4)
    for _ in range(100):
        n, k = rng.randint(2, 4), rng.randint(1, 4)
        prof = random_profile(rng, n, k)
        out = allocate(prof, tie_lexicographic())
        vec = list(prof.vector(0))
        vec[0] = vec[0] + rng.uniform(0, 1)
        bumped = prof.replace(0, StandardBid(tuple(vec)))
        out2 = allocate(bumped, tie_lexicographic())
        assert out2.allocation[0] >= out.allocation[0]


# -- pricing ----------------------------------------------------------------


def test_discriminatory_payments():
    prof = standard_profile(2, standard_bid(3, 1), standard_bid(2, 2))
    out = run_auction(prof, tie_lexicographic(), "discriminatory")
    assert out.payments == (3.0, 2.0)


def test_losers_pay_nothing():
    prof = standard_profile(2, standard_bid(3, 3), standard_bid(1, 0))
    out = run_auction(prof, tie_lexicographic(), "discriminatory")
    assert out.payments == (6.0, 0.0)


def test_uniform_price_highest_losing():
    out = run_auction(uniform_profile(1, UniformBid(0.5, 1), UniformBid(0.5, 1)),
                      tie_favor_bidder(1), "uniform")
    assert out.allocation == (0, 1)
    assert out.payments == (0.0, 0.5)


def test_uniform_price_winner_takes_all():
    # winner of all k units pays the displaced single-unit bid per unit
    k = 5
    bids = [UniformBid(1 / (k - 1), k), UniformBid(1 / k, 1)] + [
        UniformBid(1e-6, 1) for _ in range(k - 2)]
    out = run_auction(uniform_profile(k, *bids), tie_lexicographic(), "uniform")
    assert out.allocation[0] == k
    assert out.payments[0] == pytest.approx(k * (1 / k))


def test_revenue_equals_sum_of_winning_bids():
    rng = random.Random(11)
    for _ in range(100):
        prof = random_profile(rng, rng.randint(1, 4), rng.randint(1, 5))
        out = run_auction(prof, tie_lexicographic(), "discriminatory")
        assert sum(out.payments) == pytest.approx(sum(out.winning_bids))


def test_uniform_price_below_winning_bids():
    rng = random.Random(12)
    for _ in range(100):
        prof = random_profile(rng, rng.randint(2, 4), rng.randint(1, 5))
        out = run_auction(prof, tie_lexicographic(), "uniform")
        if sum(out.allocation) == prof.k:
            assert out.uniform_price <= out.winning_bids[0] + 1e-12
        disc = run_auction(prof, tie_lexicographic(), "discriminatory")
        for pay_u, pay_d in zip(out.payments, disc.payments):
            assert pay_u <= pay_d + 1e-12


# -- utilities and no-overbidding -------------------------------------------


def test_utility_examples():
    vals = (Valuation((0.0,) + (1.0,) * 4 + (2.0,)), flat_valuation(0.2, 5))
    prof = standard_profile(5, standard_bid(1, 0, 0, 0, 0),
                            standard_bid(0.2, 0, 0, 0, 0))
    assert utilities(vals, prof, tie_lexicographic(), "uniform")[0] == 1.0
    loser = standard_profile(5, standard_bid(*(0.5,) * 5), zero_bid(5))
    assert utilities(vals, loser, tie_lexicographic(), "uniform")[1] == 0.0


def test_utilities_matches_utility():
    rng = random.Random(13)
    vals = tuple(random_valuation("general", 3, 1.0, seed=s) for s in (1, 2))
    prof = random_profile(rng, 2, 3)
    us = utilities(vals, prof, tie_lexicographic(), "discriminatory")
    out = run_auction(prof, tie_lexicographic(), "discriminatory")
    for i in range(2):
        assert us[i] == vals[i].value(out.allocation[i]) - out.payments[i]


def test_check_no_overbidding():
    v = valuation(0, 1)
    assert check_no_overbidding(v, StandardBid((0.0,)))
    assert not check_no_overbidding(v, StandardBid((1.5,)))
    w = random_valuation("submodular", 4, 1.0, seed=3)
    assert check_no_overbidding(w, StandardBid(w.marginals))
    # a prefix sum of exactly v(s) + 1e-12 passes and one float above it
    # fails, at the first prefix and at a later one
    v = valuation(0, 0.3, 0.5)
    edge = 0.3 + 1e-12
    assert check_no_overbidding(v, StandardBid((edge, 0.0)))
    assert not check_no_overbidding(
        v, StandardBid((math.nextafter(edge, 1), 0.0)))
    top = 0.5 + 1e-12
    for total, passes in ((top, True), (math.nextafter(top, 1), False)):
        second = total - 0.3
        assert 0.3 + second == total
        assert check_no_overbidding(v, StandardBid((0.3, second))) is passes


def test_no_overbidding_implies_budget_balance():
    # sum of winning bids is at most the realized welfare
    rng = random.Random(14)
    for _ in range(60):
        k = rng.randint(1, 4)
        vals = tuple(random_valuation("general", k, 1.0, seed=rng.randrange(10 ** 6))
                     for _ in range(3))
        bids = []
        for v in vals:
            vec, acc, prev = [], 0.0, float("inf")
            for j in range(1, k + 1):
                b = rng.random() * max(min(prev, v.value(j) - acc), 0.0)
                vec.append(b)
                acc += b
                prev = b
            bids.append(StandardBid(tuple(vec)))
        prof = standard_profile(k, *bids)
        out = allocate(prof, tie_lexicographic())
        assert sum(out.winning_bids) <= social_welfare(vals, out.allocation) + 1e-9


# -- opposing thresholds -----------------------------------------------------


def test_beta_minus_i_two_bidders():
    prof = standard_profile(3, standard_bid(5, 4, 3), standard_bid(2, 1, 0))
    beta = beta_minus_i(prof, 0)
    assert beta == (0.0, 1.0, 2.0)


def test_beta_minus_i_matches_reallocation():
    rng = random.Random(15)
    for _ in range(80):
        n, k = rng.randint(2, 5), rng.randint(1, 4)
        prof = random_profile(rng, n, k)
        i = rng.randrange(n)
        beta = beta_minus_i(prof, i)
        others = [prof.bids[j] for j in range(n) if j != i]
        out = allocate(standard_profile(k, *others), tie_lexicographic())
        assert beta == out.winning_bids


def test_beta_grows_with_extra_bidder():
    rng = random.Random(16)
    for _ in range(80):
        n, k = rng.randint(2, 5), rng.randint(1, 4)
        prof = random_profile(rng, n, k)
        full = allocate(prof, tie_lexicographic()).winning_bids
        for i in range(n):
            partial = beta_minus_i(prof, i)
            assert all(p <= f + 1e-12 for p, f in zip(partial, full))


def _random_bid(rng, k, uniform):
    # a coarse value set, so that ties between bidders and slots are common
    def value():
        return rng.choice((0.0, 0.25, 0.5, 0.5, 0.75, 1.0, rng.random()))
    if uniform:
        return UniformBid(value(), rng.randint(0, k))
    return StandardBid(tuple(sorted((value() for _ in range(k)),
                                    reverse=True)))


def _vector(bid, k):
    return (bid.expand(k) if isinstance(bid, UniformBid) else bid).values


def _valuations_to_check(rng, k):
    """A random value curve, and the zero curve, under which a utility is
    exactly minus the payment."""
    marginals = [rng.random() for _ in range(k)]
    return [np.array(list(itertools.accumulate([0.0] + marginals))),
            np.zeros(k + 1)]


def _assert_outcome(units, utils, values, out, i):
    """units and utils are bidder i's outcome in the full auction out."""
    x = out.allocation[i]
    assert (int(units), float(utils)) == (x, values[x] - out.payments[i])
    if not values.any():
        assert float(utils) == -out.payments[i]


def _wide_case():
    """A k = 300 profile where bidder 0 wins more units with each candidate
    than a uint8 counter holds."""
    k = 300
    low = StandardBid((0.25,) * (k // 2) + (0.0,) * (k - k // 2))
    prof = standard_profile(k, StandardBid((0.5,) * k), low)
    cands = [StandardBid((0.75,) * k), StandardBid((0.25,) * k),
             StandardBid((0.5,) * 260 + (0.25,) * 40)]
    return prof, cands


def _check_deviations(prof, i, cands, tie, pricing, val_rng):
    k = prof.k
    for values in _valuations_to_check(val_rng, k):
        units, utils = deviation_outcomes(
            [prof], i, np.array([_vector(c, k) for c in cands]), values, tie,
            pricing)
        for c, cand in enumerate(cands):
            out = run_auction(prof.replace(i, cand), tie, pricing)
            _assert_outcome(units[0, c], utils[0, c], values, out, i)


def test_deviation_outcomes_equal_full_auction():
    rng = random.Random(2024)
    # the value curves come from their own generator, so the seed-2024
    # stream yields the same profiles and candidates as before
    val_rng = random.Random(2028)
    for _ in range(1500):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        uniform = rng.random() < 0.5
        prof = BidProfile(tuple(_random_bid(rng, k, uniform)
                                for _ in range(n)),
                          "uniform" if uniform else "standard", k)
        tie = random_tie(rng, n, k)
        i = rng.randrange(n)
        for pricing in ("discriminatory", "uniform"):
            cands = [_random_bid(rng, k, uniform or rng.random() < 0.5)
                     for _ in range(6)]
            _check_deviations(prof, i, cands, tie, pricing, val_rng)
    prof, cands = _wide_case()
    for pricing in ("discriminatory", "uniform"):
        _check_deviations(prof, 0, cands, tie_lexicographic(), pricing,
                          val_rng)


def _check_block(choices, vectors, i, tie, val_rng):
    """block_allocation then block_utilities of bidder i's vectors against
    every combination of the others' choices equals a full auction on
    each."""
    k = len(vectors[0])
    spaces = [[_vector(b, k) for b in bids] for bids in choices]
    spaces.insert(i, vectors)
    cands = SearchCandidates([np.array(s) for s in spaces], tie)
    for j, space in enumerate(spaces):
        for c, vector in enumerate(space):
            for a in range(k + 1):
                assert cands.paid[j][c, a] == sum(vector[:a])
    # one row per combination of the others' choices
    combos = list(itertools.product(*(range(len(c)) for c in choices)))
    picks = [np.array(p) for p in zip(*combos)]
    for pricing in ("discriminatory", "uniform"):
        for values in _valuations_to_check(val_rng, k):
            units, charge = block_allocation(cands, i, pricing, picks)
            utils = block_utilities(cands, i, values, pricing, units, charge)
            assert units.shape == utils.shape == (len(combos), len(vectors))
            for r, combo in enumerate(combos):
                bids = [StandardBid(_vector(bids[p], k))
                        for bids, p in zip(choices, combo)]
                for c, vector in enumerate(vectors):
                    row = BidProfile(tuple(bids[:i] + [StandardBid(vector)]
                                           + bids[i:]), "standard", k)
                    out = run_auction(row, tie, pricing)
                    _assert_outcome(units[r, c], utils[r, c], values, out, i)


def test_block_outcomes_match_full_auction():
    rng = random.Random(2025)
    # a second generator draws the others' alternative bids, and a third
    # the value curves, so the seed-2025 stream yields the same profiles
    # with or without them
    extra = random.Random(2026)
    val_rng = random.Random(2027)
    for _ in range(1500):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        uniform = rng.random() < 0.5
        prof = BidProfile(tuple(_random_bid(rng, k, uniform)
                                for _ in range(n)),
                          "uniform" if uniform else "standard", k)
        tie = random_tie(rng, n, k)
        i = rng.randrange(n)
        vectors = [_vector(_random_bid(rng, k, rng.random() < 0.5), k)
                   for _ in range(8)]
        # each other bidder's bid, and at times one more
        choices = [[prof.bids[j]] + [_random_bid(extra, k, uniform)
                                     for _ in range(extra.randint(0, 1))]
                   for j in range(n) if j != i]
        _check_block(choices, vectors, i, tie, val_rng)
    prof, cands = _wide_case()
    _check_block([[prof.bids[1]]], [c.values for c in cands], 0,
                 tie_lexicographic(), val_rng)


# -- welfare and uniformization ---------------------------------------------


def test_social_welfare():
    vals = (valuation(0, 1, 2), valuation(0, 3, 3))
    assert social_welfare(vals, (2, 0)) == 2.0
    assert social_welfare(vals, (0, 0)) == 0.0


def test_uniformize_last_winning_bid():
    prof = standard_profile(3, standard_bid(3, 2, 1), standard_bid(2.5, 2.5, 0))
    out = allocate(prof, tie_lexicographic())
    assert out.allocation == (1, 2)
    uni = uniformize_profile(prof, tie_lexicographic())
    assert uni.bids[0] == UniformBid(3.0, 1)
    assert uni.bids[1] == UniformBid(2.5, 2)


def test_uniformize_preserves_allocation_and_willingness():
    rng = random.Random(17)
    for _ in range(150):
        n, k = rng.randint(2, 4), rng.randint(1, 5)
        prof = random_profile(rng, n, k)
        out = allocate(prof, tie_lexicographic())
        uni = uniformize_profile(prof, tie_lexicographic())
        out2 = allocate(uni, tie_lexicographic())
        assert out2.allocation == out.allocation
        for i in range(n):
            x = out.allocation[i]
            if x:
                assert x * uni.vector(i)[x - 1] == x * prof.vector(i)[x - 1]
            else:
                assert uni.bids[i] == UniformBid(0.0, 0)


def test_uniformize_fixed_point_on_winning_uniform_bids():
    prof = uniform_profile(3, UniformBid(2.0, 2), UniformBid(1.0, 1))
    uni = uniformize_profile(prof, tie_lexicographic())
    assert uni.bids == prof.bids


def test_auction_instance_validation():
    vals = (valuation(0, 1), valuation(0, 1))
    with pytest.raises(ValueError):
        AuctionInstance(vals, 1, "vickrey", tie_lexicographic())
    with pytest.raises(ValueError):
        AuctionInstance(vals, 2, "uniform", tie_lexicographic())
    with pytest.raises(ValueError):
        AuctionInstance((), 1, "uniform", tie_lexicographic())


def test_profile_json_roundtrip():
    prof = uniform_profile(2, UniformBid(0.5, 2), UniformBid(0.25, 1))
    assert BidProfile.from_json(prof.to_json()) == prof
    std = standard_profile(2, standard_bid(1, 0.5), zero_bid(2))
    assert BidProfile.from_json(std.to_json()) == std


@pytest.mark.parametrize("field, bad", [
    ("k", 2.9), ("k", True), ("k", "2"), ("k", math.inf),
    ("quantity", 1.7), ("quantity", True), ("quantity", None)])
def test_profile_json_rejects_non_integral_counts(field, bad):
    data = uniform_profile(3, UniformBid(0.5, 2), UniformBid(0.25, 1)).to_json()
    # an integral float is read as the integer
    data["k"] = 3.0
    data["bids"][0]["quantity"] = 2.0
    assert BidProfile.from_json(data) == uniform_profile(
        3, UniformBid(0.5, 2), UniformBid(0.25, 1))
    if field == "k":
        data["k"] = bad
    else:
        data["bids"][0]["quantity"] = bad
    with pytest.raises(ValueError, match=field):
        BidProfile.from_json(data)


def test_explicit_tie_break_order():
    from poa_lab.mechanisms import TieBreakRule, tie_explicit

    tie = tie_explicit([(1, 0), (0, 0)])
    prof = standard_profile(1, standard_bid(0.5), standard_bid(0.5))
    assert allocate(prof, tie).allocation == (0, 1)
    # pairs outside the listed order fall back to lexicographic, after it
    assert tie.priority(0, 0) < tie.priority(2, 0)
    assert TieBreakRule.from_json(tie.to_json()) == tie
    with pytest.raises(ValueError):
        tie_explicit([(0, 0), (0, 0)])


def _rank_rules(n, k):
    """Rules of every tie kind for n bidders and k slots.  The first five
    are the same rule at every (n, k), so a table cached without n or k in
    its key comes back for the wrong size; the explicit orders, full and
    partial, rank later slots ahead of earlier ones."""
    pairs = [(i, s) for i in range(n) for s in range(k)]
    shuffled = random.Random(n * 10 + k).sample(pairs, len(pairs))
    return [tie_lexicographic(), tie_favor_last(), tie_favor_bidder(0),
            tie_favor_bidder(1), tie_explicit([(0, 0)]),
            tie_favor_bidder(n - 1), tie_explicit(shuffled),
            tie_explicit(shuffled[:len(pairs) // 2 + 1]),
            tie_explicit(pairs[::-1])]


def test_tie_rank_table_matches_the_priorities():
    # one process, no cache clearing: every (rule, n, k) after the first
    # may be served from the cache
    for n, k in itertools.product(range(1, 6), range(1, 6)):
        pairs = list(itertools.product(range(n), range(k)))
        for tie in _rank_rules(n, k):
            rank, worst = tie_ranks(tie, n, k)
            by_priority = sorted(pairs, key=lambda pair: tie.priority(*pair))
            assert sorted(pairs, key=lambda p: rank[p[0]][p[1]]) \
                == by_priority, (tie, n, k)
            assert sorted(r for row in rank for r in row) == list(
                range(n * k))
            for i in range(n):
                # worst[i][j] is the rank of bidder i's largest priority on
                # slots 0..j
                assert [tie.priority(*by_priority[w]) for w in worst[i]] \
                    == list(itertools.accumulate(
                        (tie.priority(i, s) for s in range(k)), max)), (
                    tie, n, k, i)


def test_favoured_bidder_is_one_of_the_bidders():
    from poa_lab.mechanisms import TieBreakRule

    vals = (valuation(0, 1), valuation(0, 0.5))
    AuctionInstance(vals, 1, "discriminatory", tie_favor_bidder(1))
    for bidder in (-1, 2, 7):
        with pytest.raises(ValueError, match="favour"):
            AuctionInstance(vals, 1, "discriminatory",
                            tie_favor_bidder(bidder))
    # read as an integer, like every other integer of an instance file
    assert TieBreakRule.from_json(
        {"kind": "favor_bidder", "bidder": 1.0}) == tie_favor_bidder(1)
    for bad in (0.5, True, "1"):
        with pytest.raises(ValueError, match="bidder"):
            TieBreakRule.from_json({"kind": "favor_bidder", "bidder": bad})


def test_tie_break_json_roundtrip():
    from poa_lab.mechanisms import TieBreakRule

    for tie in (tie_lexicographic(), tie_favor_bidder(2), tie_favor_last()):
        assert TieBreakRule.from_json(tie.to_json()) == tie
