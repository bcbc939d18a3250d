"""The closed-form best response and is_pure_nash read from one ranking,
checked bit for bit against reference implementations that run a whole
auction for the outcome and for every candidate; and the batched regret
kernel, checked bit for bit against is_pure_nash."""

import math

import pytest

from poa_lab import sweeps
from poa_lab.equilibria import (
    BestResponse,
    BidGrid,
    RegretEntry,
    RegretReport,
    _closed_form_regrets,
    _regret_row,
    best_response,
    is_pure_nash,
)
from poa_lab.instances import theorem4_instance
from poa_lab.mechanisms import (
    DISCRIMINATORY,
    STANDARD,
    UNIFORM,
    AuctionInstance,
    BidProfile,
    Outcome,
    StandardBid,
    UniformBid,
    _ranked_outcome,
    allocate,
    check_no_overbidding,
    run_auction,
    standard_bid,
    standard_profile,
    tie_explicit,
    tie_favor_bidder,
    tie_favor_last,
    tie_lexicographic,
    uniform_profile,
    zero_bid,
)
from poa_lab.sweeps import case_rng
from poa_lab.valuations import Valuation, random_valuation, valuation

from helpers import random_tie

# -- reference implementations -------------------------------------------------


def reference_run_auction(profile, tie, pricing):
    """One full auction: sort every positive entry under the tie rule."""
    vectors = profile.vectors()
    k = profile.k
    entries = []
    for i, vec in enumerate(vectors):
        for j, v in enumerate(vec):
            if v > 0.0:
                entries.append((v, i, j))
    entries.sort(key=lambda e: (-e[0],) + tie.priority(e[1], e[2]))
    selected = entries[:k]
    x = [0] * len(vectors)
    for _, i, _ in selected:
        x[i] += 1
    values = sorted(e[0] for e in selected)
    beta = (0.0,) * (k - len(values)) + tuple(values)
    p = entries[k][0] if len(entries) > k else 0.0
    if pricing == DISCRIMINATORY:
        pays = tuple(sum(vec[:units]) for vec, units in zip(vectors, x))
    else:
        pays = tuple(units * p for units in x)
    return Outcome(tuple(x), beta, p, pays)


def reference_best_response(instance, profile, i, grid):
    """Every constant candidate scored by its own full auction."""
    val = instance.valuations[i]
    k = instance.k
    tie, pricing = instance.tie_break, instance.pricing
    # the winning bids with bidder i bidding nothing are its thresholds
    beta = reference_run_auction(profile.replace(i, UniformBid(0.0, 0)), tie,
                                 pricing).winning_bids
    best = BestResponse(UniformBid(0.0, 0), 0.0)
    cap = grid.max_bid + 1e-12
    for j in range(1, k + 1):
        threshold = beta[j - 1]
        seen = set()
        for c in (threshold, threshold + grid.tick):
            if c <= 0.0 or c > cap or c in seen:
                continue
            seen.add(c)
            bid = UniformBid(c, j)
            if grid.no_overbidding and not check_no_overbidding(
                    val, bid.expand(k)):
                continue
            out = reference_run_auction(profile.replace(i, bid), tie, pricing)
            if out.allocation[i] != j:
                continue
            u = val.value(j) - out.payments[i]
            if u > best.utility:
                best = BestResponse(bid, u)
    return best


def reference_is_pure_nash(profile, instance, grid):
    out = reference_run_auction(profile, instance.tie_break, instance.pricing)
    entries = []
    for i in range(instance.n):
        cur = instance.valuations[i].value(out.allocation[i]) - out.payments[i]
        br = reference_best_response(instance, profile, i, grid)
        regret = max(0.0, max(br.utility, cur) - cur)
        entries.append(RegretEntry(i, 0, cur, max(br.utility, cur), regret,
                                   br.bid))
    return RegretReport(tuple(entries))


# -- seeded cases ------------------------------------------------------------------


def random_case(index):
    rng = case_rng(8008, index)
    n, k = rng.randint(1, 5), rng.randint(1, 5)
    tick = rng.choice((0.125, 1e-3))
    on_grid = rng.random() < 0.5
    # few distinct levels, so equal bids and thresholds are common
    levels = ([tick * rng.randint(1, 8) for _ in range(3)] if on_grid
              else [rng.uniform(0.0, 1.0) for _ in range(3)]) + [0.0]
    interface = rng.choice(("standard", "uniform"))
    if interface == "standard":
        bids = tuple(StandardBid(tuple(sorted(
            (rng.choice(levels) for _ in range(k)), reverse=True)))
            for _ in range(n))
    else:
        bids = tuple(UniformBid(rng.choice(levels), rng.randint(0, k))
                     for _ in range(n))
    profile = BidProfile(bids, interface, k)
    # max_bid below, among or above the thresholds
    top = max(levels)
    max_bid = max(tick, rng.choice((0.5 * top, top, top + 1.0)))
    grid = BidGrid(tick, max_bid, interface,
                   no_overbidding=rng.random() < 0.5)
    vals = tuple(random_valuation("general", k, rng.choice((0.25, 1.0)),
                                  seed=rng.randrange(2 ** 31))
                 for _ in range(n))
    instance = AuctionInstance(vals, k, rng.choice((DISCRIMINATORY, UNIFORM)),
                               random_tie(rng, n, k))
    return instance, profile, grid


def test_closed_form_equals_auction_reference_bit_for_bit():
    kinds = set()
    for index in range(1600):
        instance, profile, grid = random_case(index)
        tie, pricing = instance.tie_break, instance.pricing
        kinds.add((tie.kind, pricing, profile.interface, grid.no_overbidding,
                   grid.tick))
        expected = reference_run_auction(profile, tie, pricing)
        assert _ranked_outcome(profile, tie, pricing)[1] == expected
        assert run_auction(profile, tie, pricing) == expected
        assert allocate(profile, tie).allocation == expected.allocation
        for i in range(instance.n):
            assert (best_response(instance, profile, i, grid)
                    == reference_best_response(instance, profile, i, grid))
        assert (is_pure_nash(profile, instance, grid)
                == reference_is_pure_nash(profile, instance, grid))
    # every tie kind under both pricings, both interfaces, no-overbidding
    # on and off and both ticks
    assert len(kinds) == 4 * 2 * 2 * 2 * 2


# -- the win test, by hand ---------------------------------------------------------


def deviation_outcome(instance, profile, i, br):
    """Units and payment of bidder i's response, from a full auction."""
    out = run_auction(profile.replace(i, br.bid), instance.tie_break,
                      instance.pricing)
    return out.allocation[i], out.payments[i]


@pytest.mark.parametrize("tie, bid, utility", [
    # bidder 0's slots both rank ahead of bidder 1's: (0.5, 0.5) wins both
    (tie_lexicographic(), UniformBid(0.5, 2), 1.5),
    # bidder 0's slot 1 ranks after bidder 1's slot 0: at 0.5 it wins one
    # unit only, so two units cost a tick more each
    (tie_explicit([(0, 0), (1, 0), (1, 1)]), UniformBid(0.75, 2), 1.0),
])
def test_bid_at_threshold_wins_by_tie_priority_alone(tie, bid, utility):
    vals = (valuation(0, 1.0, 2.5), valuation(0, 1.0, 2.0))
    inst = AuctionInstance(vals, 2, DISCRIMINATORY, tie)
    prof = standard_profile(2, zero_bid(2), standard_bid(0.5, 0.5))
    br = best_response(inst, prof, 0, BidGrid(0.25, 1.0))
    assert br == BestResponse(bid, utility)
    assert deviation_outcome(inst, prof, 0, br) == (2, 2 * bid.price)


def test_uniform_price_is_zero_with_fewer_than_k_opposing_entries():
    # one opposing entry, k = 3: up to two units face no losing opposing
    # entry and cost nothing; three units pay the 0.5 that then loses
    vals = (valuation(0, 1.0, 1.8, 2.4), valuation(0, 1.0, 1.0, 1.0))
    inst = AuctionInstance(vals, 3, UNIFORM, tie_lexicographic())
    prof = standard_profile(3, zero_bid(3), standard_bid(0.5, 0.0, 0.0))
    br = best_response(inst, prof, 0, BidGrid(0.125, 1.0))
    assert br == BestResponse(UniformBid(0.125, 2), 1.8)
    assert deviation_outcome(inst, prof, 0, br) == (2, 0.0)


@pytest.mark.parametrize("max_bid, expected", [
    # bidder 1 deviates: the tie at 0.5 goes to bidder 0, and 0.75 is over
    # a cap of 0.5, so no bid wins
    (0.5, BestResponse(UniformBid(0.0, 0), 0.0)),
    (0.75, BestResponse(UniformBid(0.75, 1), 0.25)),
])
def test_threshold_plus_tick_above_max_bid_is_skipped(max_bid, expected):
    vals = (valuation(0, 1.0), valuation(0, 1.0))
    inst = AuctionInstance(vals, 1, DISCRIMINATORY, tie_lexicographic())
    prof = standard_profile(1, standard_bid(0.5), zero_bid(1))
    br = best_response(inst, prof, 1, BidGrid(0.25, max_bid))
    assert br == expected
    assert deviation_outcome(inst, prof, 1, br) == (expected.bid.quantity,
                                                    expected.bid.price)


@pytest.mark.parametrize("pricing", [DISCRIMINATORY, UNIFORM])
def test_threshold_at_the_max_bid_cap_is_allowed(pricing):
    # bidder 1 bids exactly max_bid + 1e-12, the closed form's cap: bidder
    # 0 matches it and wins the tie; one float higher is over the cap
    vals = (valuation(0, 1.0), valuation(0, 1.0))
    inst = AuctionInstance(vals, 1, pricing, tie_lexicographic())
    grid = BidGrid(0.25, 0.5)
    edge = 0.5 + 1e-12
    prof = standard_profile(1, zero_bid(1), standard_bid(edge))
    br = best_response(inst, prof, 0, grid)
    assert br == BestResponse(UniformBid(edge, 1), 1.0 - edge)
    assert deviation_outcome(inst, prof, 0, br) == (1, edge)
    prof = standard_profile(1, zero_bid(1),
                            standard_bid(math.nextafter(edge, 1.0)))
    assert best_response(inst, prof, 0, grid) == BestResponse(
        UniformBid(0.0, 0), 0.0)


@pytest.mark.parametrize("pricing, bid, utility", [
    (DISCRIMINATORY, UniformBid(0.125, 2), 1.25),
    (UNIFORM, UniformBid(0.125, 2), 1.5),
])
def test_all_zero_opposition_costs_one_tick_per_unit_at_most(pricing, bid,
                                                             utility):
    vals = (valuation(0, 1.0, 1.5), valuation(0, 1.0, 1.5))
    inst = AuctionInstance(vals, 2, pricing, tie_lexicographic())
    prof = standard_profile(2, zero_bid(2), zero_bid(2))
    br = best_response(inst, prof, 0, BidGrid(0.125, 1.0))
    assert br == BestResponse(bid, utility)
    assert deviation_outcome(inst, prof, 0, br)[0] == 2


def test_threshold_plus_tick_rounding_to_threshold_matches_reference():
    # at 1e20 a tick of 1 is lost to rounding: both candidates are equal
    vals = (valuation(0, 3e20, 3e20), valuation(0, 1.0, 1.0))
    for tie in (tie_lexicographic(), tie_favor_last()):
        inst = AuctionInstance(vals, 2, UNIFORM, tie)
        prof = standard_profile(2, zero_bid(2), standard_bid(1e20, 1e20))
        grid = BidGrid(1.0, 2e20)
        assert (best_response(inst, prof, 0, grid)
                == reference_best_response(inst, prof, 0, grid))


# -- the batched regret kernel -----------------------------------------------------


def assert_kernel_matches(cases):
    """One _closed_form_regrets pass over the (instance, profile, grid)
    cases, each row bit for bit is_pure_nash's regrets, then zeros."""
    regrets = _closed_form_regrets([_regret_row(profile, instance, grid)
                                    for instance, profile, grid in cases])
    for row, (instance, profile, grid) in zip(regrets.tolist(), cases):
        expected = [e.regret for e in is_pure_nash(profile, instance,
                                                   grid).entries]
        assert repr(row) == repr(expected + [0.0] * (len(row) - len(expected)))


def test_regret_kernel_equals_is_pure_nash_on_mixed_chunks():
    kinds = set()
    cases = [random_case(index) for index in range(1600)]
    for instance, profile, grid in cases:
        kinds.add((instance.tie_break.kind, instance.pricing,
                   profile.interface, grid.no_overbidding))
    # every tie kind under both pricings, both interfaces, no-overbidding on
    # and off, in chunks of mixed n and k (1..5 each)
    assert len(kinds) == 4 * 2 * 2 * 2
    for start in range(0, len(cases), 64):
        assert_kernel_matches(cases[start:start + 64])


def test_regret_kernel_edge_cases_in_one_chunk():
    one = (valuation(0, 1.0), valuation(0, 1.0))
    two = (valuation(0, 1.0, 2.5), valuation(0, 1.0, 2.0))
    three = (valuation(0, 1.0, 1.8, 2.4), valuation(0, 1.0, 1.0, 1.0))
    slot_level = tie_explicit([(0, 0), (1, 0), (1, 1)])
    named = theorem4_instance(4, 1e-6)
    cases = [
        # one opposing entry for k = 3: fewer than k opposing positive bids
        (AuctionInstance(three, 3, UNIFORM, tie_lexicographic()),
         standard_profile(3, zero_bid(3), standard_bid(0.5, 0.0, 0.0)),
         BidGrid(0.125, 1.0)),
        # threshold + tick above max_bid, and the cap itself
        (AuctionInstance(one, 1, DISCRIMINATORY, tie_lexicographic()),
         standard_profile(1, standard_bid(0.5), zero_bid(1)),
         BidGrid(0.25, 0.5)),
        (AuctionInstance(one, 1, UNIFORM, tie_lexicographic()),
         standard_profile(1, zero_bid(1), standard_bid(0.5 + 1e-12)),
         BidGrid(0.25, 0.5)),
        # a rival ahead at the threshold, by slot and by bidder
        (AuctionInstance(two, 2, DISCRIMINATORY, slot_level),
         standard_profile(2, zero_bid(2), standard_bid(0.5, 0.5)),
         BidGrid(0.25, 1.0)),
        (AuctionInstance(two, 2, DISCRIMINATORY, tie_favor_bidder(1)),
         standard_profile(2, zero_bid(2), standard_bid(0.5, 0.5)),
         BidGrid(0.25, 1.0, no_overbidding=True)),
        # a tick lost to rounding: both candidates equal the threshold
        (AuctionInstance((valuation(0, 3e20, 3e20), valuation(0, 1.0, 1.0)),
                         2, UNIFORM, tie_favor_last()),
         standard_profile(2, zero_bid(2), standard_bid(1e20, 1e20)),
         BidGrid(1.0, 2e20)),
        # six copies of 0.1 sum to 0.6 one at a time, but 6 * 0.1 is
        # 0.6000000000000001: the best response pays the sum
        (AuctionInstance((Valuation((0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.5)),
                          Valuation((0.0,) * 7)), 6, DISCRIMINATORY,
                         tie_favor_bidder(0)),
         standard_profile(6, zero_bid(6), standard_bid(*(0.1,) * 6)),
         BidGrid(0.125, 1.0)),
        # zero regret: an equilibrium on the uniform interface
        (named.instance, named.profile("equilibrium"), named.grid),
        # one bidder, who faces nobody
        (AuctionInstance((Valuation((0.0, 0.5)),), 1, DISCRIMINATORY,
                         tie_lexicographic()),
         uniform_profile(1, UniformBid(0.0, 0)), BidGrid(0.125, 1.0)),
    ]
    assert_kernel_matches(cases)
    regrets = _closed_form_regrets([_regret_row(p, i, g)
                                    for i, p, g in cases])
    assert regrets[7].tolist() == [0.0] * 4
    assert regrets[0, 0] == 1.8 and regrets[1, 1] == 0.0
    assert regrets[6, 0] == 1.5 - 0.6 != 1.5 - 6 * 0.1


def test_regret_kernel_on_the_tie_construction_rows(monkeypatch):
    """Every row the tie-constructions benchmark's sweeps score at its
    seeds, 1008 and 1009, against is_pure_nash on the row's objects."""
    chunks = []
    kernel = sweeps._closed_form_regrets

    def kept(rows):
        chunks.append((rows, kernel(rows)))
        return chunks[-1][1]

    monkeypatch.setattr(sweeps, "_closed_form_regrets", kept)
    assert sweeps.proposition1_sweep(250, 1008) == 250
    assert sweeps.lemma1_conversion_sweep(500, 1009) == 500
    scored = 0
    for rows, regrets in chunks:
        for (k, curves, vectors, tie, uniform, grid), row in zip(
                rows, regrets.tolist()):
            instance = AuctionInstance(tuple(map(Valuation, curves)), k,
                                       UNIFORM if uniform else DISCRIMINATORY,
                                       tie)
            profile = BidProfile(tuple(map(StandardBid, vectors)), STANDARD,
                                 k)
            expected = [e.regret for e in is_pure_nash(profile, instance,
                                                       grid).entries]
            assert repr(row[:len(expected)]) == repr(expected)
            assert not any(row[len(expected):])
            scored += 1
    assert scored == 3718
