import itertools
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from poa_lab import equilibria
from poa_lab.equilibria import (
    EQ_TOL,
    BayesianGame,
    BidGrid,
    RegretEntry,
    RegretReport,
    SearchCapExceeded,
    Strategy,
    bayesian_poa,
    best_response,
    find_pure_nash,
    grid_bids_for,
    is_bayes_nash,
    is_pure_nash,
    is_undominated_upa,
    pne_standard_to_uniform,
    pure_strategy,
)
from poa_lab.instances import appendix_c_bayesian, theorem4_instance
from poa_lab.mechanisms import (
    AuctionInstance,
    BidProfile,
    SearchCandidates,
    StandardBid,
    UniformBid,
    allocate,
    block_allocation,
    block_utilities,
    check_no_overbidding,
    run_auction,
    social_welfare,
    standard_bid,
    standard_profile,
    tie_explicit,
    tie_favor_bidder,
    tie_favor_last,
    tie_lexicographic,
    uniform_profile,
    zero_bid,
)
from poa_lab.sweeps import (
    case_rng,
    lemma1_equilibrium,
    random_instance,
    random_no_overbidding_profile,
)
from poa_lab.valuations import (
    Valuation,
    from_marginals,
    random_valuation,
    valuation,
)

from helpers import (
    best_response_enumerated,
    random_profile,
    random_tie,
    singleton_game,
    standard_deviation_game,
)


def grid_snap_profile(prof, grid):
    bids = []
    for i in range(prof.n):
        vec = [round(v / grid.tick) * grid.tick for v in prof.vector(i)]
        vec = [min(vec[: j + 1]) for j in range(len(vec))]
        bids.append(StandardBid(tuple(vec)))
    return standard_profile(prof.k, *bids)


# -- grids -------------------------------------------------------------------


def test_grid_points():
    grid = BidGrid(0.25, 1.0)
    assert grid.points() == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert grid.contains(0.5)
    assert not grid.contains(0.3)
    assert not grid.contains(1.25)


def test_grid_validation():
    with pytest.raises(ValueError):
        BidGrid(0.0, 1.0)
    with pytest.raises(ValueError):
        BidGrid(0.5, 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_rejects_non_finite_tick_and_max_bid(bad):
    with pytest.raises(ValueError):
        BidGrid(bad, 1.0)
    with pytest.raises(ValueError):
        BidGrid(0.25, bad)
    with pytest.raises(ValueError):
        BidGrid.from_json({"tick": 0.25, "max_bid": bad})


def _listed_grid_bids(grid, k, val):
    """The strategy space enumerated bid by bid: the reference order."""
    if grid.interface == "uniform":
        bids = [UniformBid(0.0, 0)]
        for u in grid.points():
            if u <= 0:
                continue
            for q in range(1, k + 1):
                bids.append(UniformBid(u, q))
    else:
        bids = [StandardBid(combo) for combo in
                itertools.combinations_with_replacement(
                    sorted(grid.points(), reverse=True), k)]
    if grid.no_overbidding and val is not None:
        bids = [b for b in bids
                if check_no_overbidding(
                    val, b.expand(k) if isinstance(b, UniformBid) else b)]
    return bids


def test_grid_bids_match_the_listed_enumeration():
    # v(1) and v(2) sit exactly 1e-12 below the prefix sums 0.375 and
    # 0.625, so bids reaching them pass the no-overbidding slack with no
    # room to spare; one float lower, they fail it
    edge = valuation(0, 0.374999999999, 0.624999999999)
    below = valuation(0, math.nextafter(0.374999999999, 0),
                      math.nextafter(0.624999999999, 0))
    vals = [None, edge, below, valuation(0, 0.6, 0.7),
            random_valuation("general", 2, 0.5, seed=3)]
    for interface, no_overbidding in itertools.product(
            ("standard", "uniform"), (False, True)):
        for tick, max_bid in ((0.125, 1.0), (0.1, 0.7), (0.25, 0.25)):
            grid = BidGrid(tick, max_bid, interface, no_overbidding)
            for val in vals:
                bids = grid_bids_for(grid, 2, val)
                assert bids == _listed_grid_bids(grid, 2, val)
                for b in bids:
                    numbers = ((b.price,) if isinstance(b, UniformBid)
                               else b.values)
                    assert all(type(x) is float for x in numbers)
                    assert (not isinstance(b, UniformBid)
                            or type(b.quantity) is int)
        k3 = BidGrid(0.125, 0.5, interface, no_overbidding)
        val = valuation(0, 0.3, 0.5, 0.6)
        assert grid_bids_for(k3, 3, val) == _listed_grid_bids(k3, 3, val)
    grid = BidGrid(0.125, 1.0, no_overbidding=True)
    assert StandardBid((0.375, 0.25)) in grid_bids_for(grid, 2, edge)
    assert StandardBid((0.375, 0.0)) not in grid_bids_for(grid, 2, below)
    assert StandardBid((0.25, 0.25)) in grid_bids_for(grid, 2, below)
    ugrid = BidGrid(0.125, 1.0, "uniform", no_overbidding=True)
    assert UniformBid(0.375, 1) in grid_bids_for(ugrid, 2, edge)
    assert UniformBid(0.375, 1) not in grid_bids_for(ugrid, 2, below)


# -- best responses ----------------------------------------------------------


def test_best_response_priced_out():
    vals = (valuation(0, 0.4), valuation(0, 1.0))
    inst = AuctionInstance(vals, 1, "discriminatory", tie_lexicographic())
    prof = standard_profile(1, zero_bid(1), standard_bid(1.0))
    br = best_response(inst, prof, 0, BidGrid(0.1, 1.0))
    assert br.bid.quantity == 0
    assert br.utility == 0.0


def test_best_response_matches_enumeration():
    grid = BidGrid(0.125, 1.0)
    for idx in range(80):
        rng = case_rng(42, idx)
        k = rng.randint(1, 3)
        pricing = "discriminatory" if idx % 2 == 0 else "uniform"
        vals = tuple(random_valuation("general", k, 0.75 / k,
                                      seed=rng.randrange(2 ** 31))
                     for _ in range(2))
        inst = AuctionInstance(vals, k, pricing, tie_lexicographic())
        prof = grid_snap_profile(random_profile(rng, 2, k, 0.875), grid)
        for i in range(2):
            closed = best_response(inst, prof, i, grid)
            brute = best_response_enumerated(inst, prof, i, grid)
            assert closed.utility == pytest.approx(brute.utility, abs=1e-12)


@pytest.mark.parametrize("interface", ["standard", "uniform"])
@pytest.mark.parametrize("pricing", ["discriminatory", "uniform"])
def test_best_response_matches_full_enumeration_for_bidder_level_ties(
        pricing, interface):
    grid = BidGrid(0.125, 1.0, interface)
    for idx in range(40):
        rng = case_rng(43, idx)
        n, k = rng.randint(2, 3), rng.randint(1, 3)
        vals = tuple(random_valuation("general", k, 1.0 / k,
                                      seed=rng.randrange(2 ** 31))
                     for _ in range(n))
        prof = grid_snap_profile(random_profile(rng, n, k, 0.875), grid)
        if interface == "uniform":
            prof = uniform_profile(k, *(
                UniformBid(prof.vector(i)[0], rng.randint(0, k))
                for i in range(n)))
        for tie in [tie_lexicographic(), tie_favor_last()] + [
                tie_favor_bidder(i) for i in range(n)]:
            inst = AuctionInstance(vals, k, pricing, tie)
            for i in range(n):
                closed = best_response(inst, prof, i, grid)
                brute = best_response_enumerated(inst, prof, i, grid,
                                                 include_standard=True)
                assert closed.utility == pytest.approx(brute.utility,
                                                       abs=1e-12)


def test_enumeration_beats_closed_form_under_slot_level_ties():
    # bidder 0 bids (0.125, 0.125): its favoured slot 1 wins one unit at
    # 0.125, below the cheapest constant bid that wins exactly one unit
    tie = tie_explicit([(0, 1), (1, 1), (0, 0), (1, 0)])
    vals = (valuation(0, 1.0, 1.0), valuation(0, 1.0, 1.0))
    inst = AuctionInstance(vals, 2, "discriminatory", tie)
    prof = standard_profile(2, standard_bid(0.75, 0.125),
                            standard_bid(0.25, 0.125))
    grid = BidGrid(0.125, 1.0)
    closed = best_response(inst, prof, 0, grid)
    brute = best_response_enumerated(inst, prof, 0, grid,
                                     include_standard=True)
    assert closed.utility == 0.75
    assert brute.utility - closed.utility == 0.125
    assert brute.bid == UniformBid(0.125, 2)
    # under the slot-level rule the bid for two units wins one
    assert run_auction(prof.replace(0, brute.bid), tie,
                       "discriminatory").allocation[0] == 1


def test_best_response_respects_no_overbidding():
    # a flat value of eps cannot afford two units above eps
    vals = (valuation(0, 0.5, 0.5), valuation(0, 0.5, 0.5))
    inst = AuctionInstance(vals, 2, "uniform", tie_lexicographic())
    prof = standard_profile(2, standard_bid(0.3, 0.3), standard_bid(0.3, 0.3))
    free = best_response(inst, prof, 0, BidGrid(0.01, 1.0))
    capped = best_response(inst, prof, 0,
                           BidGrid(0.01, 1.0, no_overbidding=True))
    assert free.bid.quantity >= capped.bid.quantity
    if capped.bid.quantity:
        assert check_no_overbidding(vals[0], capped.bid.expand(2))


# -- pure Nash verification ---------------------------------------------------


def test_theorem4_profile_is_equilibrium():
    named = theorem4_instance(10, 1e-6)
    report = is_pure_nash(named.profile("equilibrium"), named.instance,
                          named.grid)
    assert report.max_regret == 0.0
    assert report.is_equilibrium()


def test_priced_out_loser_with_value_has_regret():
    vals = (valuation(0, 0.5), valuation(0, 0.9))
    inst = AuctionInstance(vals, 1, "discriminatory", tie_lexicographic())
    prof = standard_profile(1, standard_bid(0.5), zero_bid(1))
    report = is_pure_nash(prof, inst, BidGrid(0.05, 1.0))
    loser = report.entries[1]
    assert loser.regret > 0.3


def test_exact_pne_is_eps_equilibrium_for_all_eps():
    named = theorem4_instance(6, 1e-6)
    for eps in (0.0, 0.01, 0.5):
        assert is_pure_nash(named.profile("equilibrium"), named.instance,
                            named.grid).max_regret <= eps + EQ_TOL


# -- search -------------------------------------------------------------------


def test_find_pure_nash_k1_example():
    inst = AuctionInstance((valuation(0, 1.0), valuation(0, 0.5)), 1,
                           "discriminatory", tie_favor_bidder(0))
    res = find_pure_nash(inst, BidGrid(0.25, 1.0))
    assert res.exhaustive
    found = {tuple(p.vector(i) for i in range(2)) for p in res.equilibria}
    assert ((0.5,), (0.5,)) in found
    for prof in res.equilibria:
        assert is_pure_nash(prof, inst, BidGrid(0.25, 1.0)).is_equilibrium()


def test_single_bidder_must_still_pay_a_tick():
    # with no competition the all-zero bid wins nothing (zero bids never
    # win), so bidding one tick on the best prefix is the equilibrium shape
    inst = AuctionInstance((valuation(0, 0.5, 0.8),), 2, "discriminatory",
                           tie_lexicographic())
    grid = BidGrid(0.1, 1.0)
    res = find_pure_nash(inst, grid)
    zero = standard_profile(2, zero_bid(2))
    assert zero not in res.equilibria
    report = is_pure_nash(zero, inst, grid)
    assert report.max_regret == pytest.approx(0.6)  # two units at one tick each
    best = max(social_welfare(inst.valuations,
                              allocate(p, inst.tie_break).allocation)
               for p in res.equilibria)
    assert best == 0.8


def test_closed_form_no_overbidding_boundary():
    """The closed form's running prefix-sum check admits the constant bid
    whose first prefix is exactly v(1) + 1e-12 and refuses it one float
    higher, where no other candidate pays."""
    inst = AuctionInstance((valuation(0, 0.3, 1), valuation(0, 1, 1)), 2,
                           "discriminatory", tie_lexicographic())
    grid = BidGrid(0.125, 1.0, no_overbidding=True)
    edge = 0.3 + 1e-12
    for beta, bid in ((edge, UniformBid(edge, 2)),
                      (math.nextafter(edge, 1), UniformBid(0.0, 0))):
        prof = standard_profile(2, zero_bid(2), StandardBid((beta, beta)))
        assert best_response(inst, prof, 0, grid).bid == bid
        assert is_pure_nash(prof, inst, grid).entries[0].best_bid == bid


def test_find_pure_nash_cap():
    inst = AuctionInstance((valuation(0, 1, 1), valuation(0, 1, 1)), 2,
                           "discriminatory", tie_lexicographic())
    with pytest.raises(SearchCapExceeded):
        find_pure_nash(inst, BidGrid(0.001, 1.0), cap=100)
    # the cap is checked against the exact number of grid profiles
    for grid in (BidGrid(0.25, 1.0), BidGrid(0.25, 1.0, "uniform"),
                 BidGrid(0.25, 1.0, no_overbidding=True)):
        total = math.prod(len(grid_bids_for(grid, 2, v))
                          for v in inst.valuations)
        find_pure_nash(inst, grid, cap=total)
        with pytest.raises(SearchCapExceeded):
            find_pure_nash(inst, grid, cap=total - 1)


def _oracle_keys(spaces, tie):
    """SearchCandidates' tables built entry by entry: keys number the
    distinct (-value, tie rank) pairs, every zero ranked after all pairs."""
    n, k = len(spaces), spaces[0].shape[1]
    by_priority = sorted(itertools.product(range(n), range(k)),
                         key=lambda pair: tie.priority(*pair))
    rank = {pair: r for r, pair in enumerate(by_priority)}

    def pair(j, s, x):
        return (-x, rank[j, s]) if x > 0.0 else (0.0, n * k)

    pairs = sorted({pair(j, s, x) for j, space in enumerate(spaces)
                    for row in space.tolist() for s, x in enumerate(row)}
                   | {(0.0, n * k)})
    key = {p: c for c, p in enumerate(pairs)}
    keys = [np.array([sorted(key[pair(j, s, x)] for s, x in enumerate(row))
                      + [key[0.0, n * k]] for row in space.tolist()])
            for j, space in enumerate(spaces)]
    paid = [np.array([[sum(row[:a]) for a in range(k + 1)]
                      for row in space.tolist()]) for space in spaces]
    return keys, key[0.0, n * k], np.array([-v for v, _ in pairs]), paid


def test_cached_search_tables_match_a_fresh_build():
    vals = (valuation(0, 0.5, 0.75), valuation(0, 1, 1), valuation(0, 0.25, 1))
    grid = BidGrid(0.25, 0.75, no_overbidding=True)
    cuts = (vals[0], None, vals[2])
    for tie in (tie_lexicographic(), tie_favor_bidder(1), tie_favor_last(),
                tie_explicit([(2, 1), (0, 1), (1, 0)]), tie_lexicographic()):
        spaces, cached, candidates = equilibria._search_tables(
            grid, 2, tie, "discriminatory", cuts, 10 ** 8)
        # no candidates under no-overbidding
        assert candidates is None
        fresh = SearchCandidates(equilibria._grid_spaces(grid, 2, cuts), tie)
        keys, pad_key, value_of_key, paid = _oracle_keys(spaces, tie)
        assert [len(s) for s in spaces] == [5, 10, 3]
        for tables in (cached, fresh):
            assert tables.pad_key == pad_key
            assert np.array_equal(tables.value_of_key, value_of_key)
            for j in range(3):
                assert np.array_equal(tables.keys[j], keys[j]), (tie, j)
                assert np.array_equal(tables.paid[j], paid[j]), (tie, j)
    # a cache hit hands out the same tables, read-only
    again = equilibria._search_tables(grid, 2, tie, "discriminatory", cuts,
                                      10 ** 8)
    assert again[1] is cached
    assert not cached.keys[0].flags.writeable
    # another cut is another entry
    uncut = equilibria._search_tables(grid, 2, tie, "discriminatory",
                                      (None,) * 3, 10 ** 8)[0]
    assert [len(s) for s in uncut] == [10, 10, 10]


def test_cached_search_matches_uncached_search():
    """find_pure_nash under three tie rules, with and without
    no-overbidding, on two games whose bidders swap valuations: the
    equilibria, in alternating order and with the search tables reused,
    are those of searches that build every table afresh."""
    vals = (valuation(0, 0.25, 1), valuation(0, 0.5, 0.625))
    ties = (tie_lexicographic(), tie_favor_last(),
            tie_explicit([(1, 1), (0, 0)]))
    cases = [(AuctionInstance(v, 2, "discriminatory", tie),
              BidGrid(0.25, 1.0, no_overbidding=nob))
             for nob in (False, True) for v in (vals, vals[::-1])
             for tie in ties]
    expected = []
    for inst, grid in cases:
        equilibria._search_tables.cache_clear()
        expected.append(find_pure_nash(inst, grid).equilibria)
    # each tie rule and each cut changes the equilibria
    assert len(set(expected)) == len(cases)
    equilibria._search_tables.cache_clear()
    # cases alternate tie rule fastest, then game, then no-overbidding;
    # each pass starts one case later
    order = list(range(len(cases)))
    for start in range(3):
        for c in order[start:] + order[:start]:
            assert find_pure_nash(*cases[c]).equilibria == expected[c], c
    assert equilibria._search_tables.cache_info().hits > 0
    # tables cut at a valuation are built afresh and not kept
    equilibria._search_tables.cache_clear()
    for inst, grid in cases[len(cases) // 2:]:
        assert grid.no_overbidding
        find_pure_nash(inst, grid)
    assert equilibria._search_tables.cache_info().currsize == 0


def _tie_kinds(n):
    """One tie rule of each kind for n bidders with k = 2."""
    return (tie_lexicographic(), tie_favor_bidder(n - 1), tie_favor_last(),
            tie_explicit([(n - 1, 1), (0, 0), (n - 2, 1)]))


@pytest.mark.parametrize("pricing", ["discriminatory", "uniform"])
@pytest.mark.parametrize("n, grid", [(2, BidGrid(0.25, 0.75)),
                                     (3, BidGrid(0.25, 0.75, "uniform"))])
def test_cached_blocks_match_a_fresh_block_outcomes_run(pricing, n, grid):
    """The one box per bidder that a search scores covers the profile
    space and equals block_allocation built afresh, in profile order;
    gathered under any value curve it equals the (units, utilities) of
    block_allocation and block_utilities on the fresh candidates bit for bit, and a full auction on every profile.  The
    cached candidates hold, read-only, that box's entries at their cells
    and the row of each cell."""
    k = 2
    rng = random.Random(40 + n)
    curves = [np.zeros(k + 1)] + [
        np.array(random_valuation("general", k, 0.4,
                                  seed=rng.randrange(2 ** 31)).values)
        for _ in range(3)]
    for tie in _tie_kinds(n):
        equilibria._search_tables.cache_clear()
        spaces, cands, (_, cells, per_bidder) = equilibria._search_tables(
            grid, k, tie, pricing, (None,) * n, 10 ** 8)
        shape = tuple(len(s) for s in spaces)
        fresh = SearchCandidates(equilibria._grid_spaces(grid, k, [None] * n),
                                 tie)
        gathered = []
        for i in range(n):
            [(box, units, charge)] = equilibria._box_allocations(
                cands, shape, i, pricing)
            assert box == tuple(slice(None) if j == i else slice(0, shape[j])
                                for j in range(n))
            at = np.unravel_index(cells, shape)
            rows = np.ravel_multi_index(at[:i] + at[i + 1:],
                                        shape[:i] + shape[i + 1:])
            for cached, whole in zip(per_bidder[i], (units, charge, None)):
                assert not cached.flags.writeable
                assert np.array_equal(cached, rows if whole is None
                                      else whole[at]), (tie, i)
            # rows: the others' strategies in itertools.product order
            others = shape[:i] + shape[i + 1:]
            picks = [np.array(column) for column in
                     zip(*itertools.product(*map(range, others)))]

            def profile_order(block):
                return np.moveaxis(block.reshape(others + (shape[i],)), -1, i)

            new_units, new_charge = map(
                profile_order, block_allocation(fresh, i, pricing, picks))
            assert np.array_equal(units, new_units), (tie, i)
            assert np.array_equal(charge, new_charge), (tie, i)
            if pricing == "discriminatory":
                # the pay-as-bid charge is the flat index c * (k + 1) + units
                own = np.arange(shape[i]).reshape(
                    [-1 if j == i else 1 for j in range(n)])
                assert np.array_equal(charge - own * (k + 1), units)
            per_curve = []
            for values in curves:
                utils = block_utilities(cands, i, values, pricing, units,
                                        charge)
                fresh_units, fresh_charge = block_allocation(
                    fresh, i, pricing, picks)
                ref_units, ref_utils = map(profile_order, (
                    fresh_units, block_utilities(fresh, i, values, pricing,
                                                 fresh_units, fresh_charge)))
                assert utils.shape == shape
                assert utils.tobytes() == ref_utils.copy().tobytes()
                per_curve.append((ref_units, utils))
            gathered.append(per_curve)
        for cell in itertools.product(*map(range, shape)):
            out = run_auction(
                BidProfile(tuple(_grid_bids_at(grid, spaces, cell)),
                           grid.interface, k), tie, pricing)
            for i in range(n):
                for values, (units, utils) in zip(curves, gathered[i]):
                    x = out.allocation[i]
                    assert (int(units[cell]), float(utils[cell])) == (
                        x, values[x] - out.payments[i]), (tie, cell, i)


def _grid_bids_at(grid, spaces, cell):
    """The grid bids of one profile of the search's strategy arrays."""
    return [equilibria._grid_bids(grid.interface, space[c:c + 1])[0]
            for space, c in zip(spaces, cell)]


@pytest.mark.parametrize("pricing", ["discriminatory", "uniform"])
def test_search_above_the_block_bound_scores_slices(monkeypatch, pricing):
    """With more profiles than _BLOCK_CELLS (286 ** 2 on this grid) the
    search keeps no candidates and scores slices; raising the bound to
    keep them gives the same equilibria."""
    rng = random.Random(5)
    vals = tuple(random_valuation("general", 3, 0.3,
                                  seed=rng.randrange(2 ** 31))
                 for _ in range(2))
    grid = BidGrid(0.1, 1.0)
    results = []
    for cells in (equilibria._BLOCK_CELLS, 1 << 17):
        monkeypatch.setattr(equilibria, "_BLOCK_CELLS", cells)
        for tie in (tie_lexicographic(), tie_explicit([(1, 2), (0, 0)])):
            equilibria._search_tables.cache_clear()
            inst = AuctionInstance(vals, 3, pricing, tie)
            res = find_pure_nash(inst, grid)
            candidates = equilibria._search_tables(grid, 3, tie, pricing,
                                                   (None, None), 10 ** 8)[2]
            assert (candidates is None) == (cells < 286 ** 2)
            results.append(res.equilibria)
    equilibria._search_tables.cache_clear()
    assert results[0] and results[1]
    assert results[:2] == results[2:]


def test_cached_blocks_are_keyed_by_pricing():
    """Searches that differ only in pricing or tie rule, run with every
    cache cleared and then in alternating order on warm caches, find the
    same equilibria."""
    vals = (valuation(0, 0.5, 0.75), valuation(0, 0.75, 1.0))
    grid = BidGrid(0.25, 1.0)
    cases = [AuctionInstance(v, 2, pricing, tie)
             for v in (vals, vals[::-1]) for tie in _tie_kinds(2)
             for pricing in ("discriminatory", "uniform")]
    expected = []
    for inst in cases:
        equilibria._search_tables.cache_clear()
        expected.append(find_pure_nash(inst, grid).equilibria)
    # pricing changes the equilibria of every game and tie rule
    assert all(a != b for a, b in zip(expected[::2], expected[1::2]))
    equilibria._search_tables.cache_clear()
    for start in range(2):
        for c in list(range(len(cases)))[start::2] + list(
                range(len(cases)))[1 - start::2]:
            assert find_pure_nash(cases[c], grid).equilibria == expected[c], c
    assert equilibria._search_tables.cache_info().hits > 0
    equilibria._search_tables.cache_clear()


def _grid_oracle_pure_nash(instance, grid):
    """Reference search: a profile is an equilibrium iff no bidder gains
    more than EQ_TOL by switching to any other of its grid strategies (the
    grid honours no-overbidding), every utility scored by a full auction.

    Returns the equilibria and the number of profiles.
    """
    k = instance.k
    spaces = [grid_bids_for(grid, k, v) for v in instance.valuations]

    def utility(i, combo):
        out = run_auction(BidProfile(combo, grid.interface, k),
                          instance.tie_break, instance.pricing)
        return (instance.valuations[i].value(out.allocation[i])
                - out.payments[i])

    best = {}

    def best_utility(i, combo):
        key = (i,) + combo[:i] + combo[i + 1:]
        if key not in best:
            best[key] = max(utility(i, combo[:i] + (alt,) + combo[i + 1:])
                            for alt in spaces[i])
        return best[key]

    found = tuple(
        BidProfile(combo, grid.interface, k)
        for combo in itertools.product(*spaces)
        if all(best_utility(i, combo) - utility(i, combo) <= EQ_TOL
               for i in range(instance.n)))
    return found, math.prod(len(s) for s in spaces)


def _screen_cases():
    rng = random.Random(31)
    kinds = itertools.product(
        range(3), ("lexicographic", "favor_bidder", "favor_last", "explicit"),
        ("discriminatory", "uniform"), ("standard", "uniform"), (False, True))
    for case, (rnd, kind, pricing, iface, no_overbidding) in enumerate(kinds):
        n = 1 + case % 3
        k = rng.randint(1, 3 if n < 3 else 2)
        if kind == "lexicographic":
            tie = tie_lexicographic()
        elif kind == "favor_bidder":
            tie = tie_favor_bidder(rng.randrange(n))
        elif kind == "favor_last":
            tie = tie_favor_last()
        else:
            # a partial slot-level order led by the last bidder's second slot
            first = (n - 1, min(1, k - 1))
            rest = [(i, j) for i in range(n) for j in range(k)
                    if (i, j) != first]
            tie = tie_explicit(
                [first] + rng.sample(rest, rng.randint(0, len(rest))))
        # grid-aligned marginal values make ties common; off-grid ones make
        # small utility gaps
        def marginal():
            if rnd == 2:
                return rng.random()
            return rng.choice((0.0, 0.25, 0.5, 0.75, 1.0))
        vals = tuple(from_marginals(marginal() for _ in range(k))
                     for _ in range(n))
        yield (AuctionInstance(vals, k, pricing, tie),
               BidGrid(0.25, 1.0 if n < 3 else 0.75, iface, no_overbidding))
    # a lone bidder pays nothing, so the zero bid forgoes exactly its value:
    # EQ_TOL is not a profitable gap, twice EQ_TOL is
    for value in (EQ_TOL, 2 * EQ_TOL):
        yield (AuctionInstance((valuation(0, value),), 1, "uniform",
                               tie_lexicographic()), BidGrid(0.25, 0.5))


def _assert_floor_row_maxima(inst, grid):
    """Without no-overbidding, the row maxima max_u v(u) - floor of each
    bidder's cached floors equal block_utilities' maxima along its axis
    bit for bit, and the candidates are the profiles where no bidder pays
    more than tick / 2 above the floor for the units it wins, that floor
    read per profile; under it the search keeps no candidates."""
    cuts = tuple(inst.valuations) if grid.no_overbidding else (None,) * inst.n
    spaces, cands, candidates = equilibria._search_tables(
        grid, inst.k, inst.tie_break, inst.pricing, cuts, 10 ** 8)
    assert (candidates is None) == grid.no_overbidding
    if candidates is None:
        return
    floors, cells, _ = candidates
    shape = tuple(len(s) for s in spaces)
    gap = np.zeros(shape)
    for i in range(inst.n):
        [(_, units, charge)] = equilibria._box_allocations(
            cands, shape, i, inst.pricing)
        values = np.array(inst.valuations[i].values)
        rowmax = (values.reshape((-1,) + (1,) * inst.n) - floors[i]).max(axis=0)
        utils = block_utilities(cands, i, values, inst.pricing, units, charge)
        assert rowmax.tobytes() == utils.max(axis=i, keepdims=True).tobytes()
        pay = (charge if inst.pricing == "uniform"
               else cands.paid[i].ravel()[charge])
        floor = np.take_along_axis(floors[i], units[None].astype(int),
                                   axis=0)[0]
        gap = np.maximum(gap, pay - floor)
    assert np.array_equal(cells, np.flatnonzero(gap <= grid.tick / 2))


def test_screened_search_matches_full_profile_loop(monkeypatch):
    """Every tie kind, both pricings, both interfaces, no-overbidding off
    and on: the search finds the brute-force scan's equilibria, with one
    auction per equilibrium, on its cached candidates and again sliced
    into boxes of at most 5 cells."""
    calls = []

    def counted_run_auction(*args):
        calls.append(args)
        return run_auction(*args)

    monkeypatch.setattr(equilibria, "run_auction", counted_run_auction)
    screened = full = found = 0
    for cells in (equilibria._BLOCK_CELLS, 5):
        monkeypatch.setattr(equilibria, "_BLOCK_CELLS", cells)
        equilibria._search_tables.cache_clear()
        for inst, grid in _screen_cases():
            expected, total = _grid_oracle_pure_nash(inst, grid)
            calls.clear()
            res = find_pure_nash(inst, grid)
            assert res.exhaustive
            assert res.equilibria == expected, (cells, inst, grid)
            assert res.evaluated == len(calls) == len(expected), (inst, grid)
            if cells > total:
                _assert_floor_row_maxima(inst, grid)
            screened += res.evaluated
            full += total
            found += len(expected)
    equilibria._search_tables.cache_clear()
    assert found > 0
    assert screened < full


@pytest.mark.parametrize("vals, grid, pricing, missed", [
    # a tick below EQ_TOL: paying a tick above the floor forgoes no gain
    ((valuation(0, 1.5e-9, 2e-9), valuation(0, 1e-9, 1.5e-9)),
     BidGrid(5e-10, 1.5e-9), pricing, True)
    for pricing in ("discriminatory", "uniform")] + [
    # tick / 2 is EQ_TOL, which leaves the bound no room for rounding
    ((valuation(0, 3e-9, 4e-9), valuation(0, 2e-9, 3e-9)),
     BidGrid(2e-9, 6e-9), pricing, False)
    for pricing in ("discriminatory", "uniform")] + [
    # at 1e16 a value's ulp is 2: payments a tick apart leave one utility
    ((valuation(0, 1e16, 2e16), valuation(0, 1e16, 1.5e16)),
     BidGrid(0.25, 1.0), pricing, pricing == "discriminatory")
    for pricing in ("discriminatory", "uniform")],
    ids=["tick-5e-10-da", "tick-5e-10-upa", "tick-2e-9-da", "tick-2e-9-upa",
         "values-1e16-da", "values-1e16-upa"])
def test_search_beyond_the_rounding_bound_scores_every_box(
        monkeypatch, vals, grid, pricing, missed):
    """Where tick / 2 < EQ_TOL + 2^-50 (max v + k max_bid) the search
    leaves the cached candidates for the mask path, one box per bidder,
    and finds the brute-force scan's equilibria.  On some of these games
    the candidates miss equilibria, so the bound is needed."""
    inst = AuctionInstance(vals, 2, pricing, tie_lexicographic())
    equilibria._search_tables.cache_clear()
    spaces, _, (_, cells, _) = equilibria._search_tables(
        grid, 2, inst.tie_break, pricing, (None, None), 10 ** 8)
    scored = []
    box_allocations = equilibria._box_allocations

    def counted(cands, shape, i, pricing):
        scored.append(i)
        return box_allocations(cands, shape, i, pricing)

    monkeypatch.setattr(equilibria, "_box_allocations", counted)
    expected, _ = _grid_oracle_pure_nash(inst, grid)
    assert find_pure_nash(inst, grid).equilibria == expected
    assert scored == [0, 1]
    rows = [{tuple(v): c for c, v in enumerate(s.tolist())} for s in spaces]
    at = {int(np.ravel_multi_index(
        [rows[i][p.vector(i)] for i in range(2)], (len(spaces[0]),) * 2))
        for p in expected}
    assert bool(at - set(cells.tolist())) == missed
    equilibria._search_tables.cache_clear()


@pytest.mark.parametrize("pricing, kept", [("discriminatory", 446),
                                           ("uniform", 9141)])
def test_candidate_entry_keeps_no_full_boxes(monkeypatch, pricing, kept):
    """On the grid-pne grid at k = 3 (165 ** 2 profiles) the cached entry
    holds no array with an entry per profile, as a box has, and less than
    the 9 bytes per profile and bidder of the boxes; a search on the warm
    entry builds no box."""
    grid = BidGrid(0.125, 1.0)
    tie = tie_lexicographic()
    equilibria._search_tables.cache_clear()
    _, _, (floors, cells, per_bidder) = equilibria._search_tables(
        grid, 3, tie, pricing, (None, None), 10 ** 8)
    arrays = [*floors, cells, *itertools.chain(*per_bidder)]
    assert len(cells) == kept
    assert all(a.size < 165 ** 2 for a in arrays)
    assert sum(a.nbytes for a in arrays) < 2 * 9 * 165 ** 2
    monkeypatch.setattr(equilibria, "_box_allocations", None)
    vals = tuple(random_valuation("general", 3, 0.25, seed=s) for s in (1, 2))
    assert find_pure_nash(AuctionInstance(vals, 3, pricing, tie),
                          grid).equilibria
    equilibria._search_tables.cache_clear()


def test_exhaustive_search_is_exact_under_slot_level_ties():
    # bidder 2 pays 0.5 for one unit; bidding (0.25, 0.25) its favoured
    # second slot wins one unit at 0.25.  The closed form tries only
    # constant bids that win their whole quantity, so it misses this.
    tie = tie_explicit([(2, 1), (0, 1), (1, 0), (2, 0)])
    vals = (valuation(0, 0.25, 1.25), valuation(0, 0.5, 0.5),
            valuation(0, 0.75, 0.75))
    inst = AuctionInstance(vals, 2, "discriminatory", tie)
    grid = BidGrid(0.25, 0.75, "uniform", no_overbidding=True)
    prof = uniform_profile(2, UniformBid(0.25, 2), UniformBid(0.25, 1),
                           UniformBid(0.5, 1))
    assert prof not in find_pure_nash(inst, grid).equilibria
    cur = is_pure_nash(prof, inst, grid).entries[2].current_utility
    assert best_response(inst, prof, 2, grid).utility <= cur
    brute = best_response_enumerated(inst, prof, 2, grid,
                                     include_standard=True)
    assert brute.utility - cur == 0.25
    assert brute.bid == UniformBid(0.25, 2)


_SLICED_VALS = (valuation(0, 0.5, 0.75), valuation(0, 0.75, 1.0),
                valuation(0, 0.25, 0.75))


@pytest.mark.parametrize("inst, grid", [
    pytest.param(AuctionInstance(_SLICED_VALS, 2, "uniform",
                                 tie_explicit([(1, 1), (2, 0), (0, 1)])),
                 BidGrid(0.25, 0.75, interface, no_overbidding=True),
                 id=interface)
    for interface in ("standard", "uniform")] + [
    # 4 ** 4 profiles: with 5 cells or fewer a box fixes two leading axes
    pytest.param(AuctionInstance(tuple(valuation(0, v) for v in
                                       (0.5, 0.75, 0.25, 1.0)), 1,
                                 "discriminatory", tie_favor_last()),
                 BidGrid(0.25, 0.75, "uniform"), id="n4-k1"),
    pytest.param(AuctionInstance((valuation(0, 0.5, 0.75),), 2, "uniform",
                                 tie_lexicographic()),
                 BidGrid(0.25, 1.0), id="n1")])
def test_search_sliced_into_many_blocks_matches_oracle(monkeypatch, inst,
                                                       grid):
    # unequal strategy counts per bidder and boxes of a few cells each, or
    # of one row where a row holds more cells than the bound; on the
    # standard grid one bidder's last box is partial
    k, pricing = inst.k, inst.pricing
    cuts = tuple(inst.valuations) if grid.no_overbidding else (None,) * inst.n
    spaces, cands, _ = equilibria._search_tables.__wrapped__(
        grid, k, inst.tie_break, pricing, cuts, 10 ** 8)
    shape = tuple(len(s) for s in spaces)
    equilibria._search_tables.cache_clear()
    whole = find_pure_nash(inst, grid)
    expected, _ = _grid_oracle_pure_nash(inst, grid)
    assert expected
    assert whole.equilibria == expected
    for cells in (2 * max(shape) + 1, 5, 3, 1):
        monkeypatch.setattr(equilibria, "_BLOCK_CELLS", cells)
        # the boxes of each bidder tile the profile space
        for i in range(inst.n):
            cover = np.zeros(shape, dtype=int)
            for box, units, charge in equilibria._box_allocations(
                    cands, shape, i, pricing):
                cover[box] += 1
                assert units.shape == charge.shape == cover[box].shape
                assert units.size <= max(cells, shape[i])
            assert (cover == 1).all(), (cells, i)
        equilibria._search_tables.cache_clear()
        assert find_pure_nash(inst, grid).equilibria == expected, cells
    equilibria._search_tables.cache_clear()


def test_sliced_search_holds_one_byte_per_profile(monkeypatch):
    """Above _BLOCK_CELLS the search's largest arrays are its mask, one
    byte per profile, and boxes of a bounded size: a second profile-sized
    array, such as a per-bidder copy of the mask, breaks the bound."""
    monkeypatch.setattr(equilibria, "_BLOCK_CELLS", 1 << 12)
    vals = tuple(random_valuation("general", 3, 0.25, seed=s) for s in (1, 2))
    inst = AuctionInstance(vals, 3, "discriminatory", tie_lexicographic())
    grid = BidGrid(0.0625, 1.0)
    profiles = len(grid_bids_for(grid, 3)) ** 2
    assert profiles == 938961
    equilibria._search_tables.cache_clear()
    # the strategy tables are built and cached outside the measurement
    find_pure_nash(inst, grid)
    tracemalloc.start()
    try:
        res = find_pure_nash(inst, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        equilibria._search_tables.cache_clear()
    assert not res.equilibria
    assert peak <= 1.5 * profiles


def test_dynamics_fixed_points_are_equilibria():
    inst = AuctionInstance((valuation(0, 1.0), valuation(0, 0.5)), 1,
                           "discriminatory", tie_favor_bidder(0))
    grid = BidGrid(0.25, 1.0)
    res = find_pure_nash(inst, grid, mode="best_response_dynamics", seed=5,
                         starts=10)
    assert not res.exhaustive
    exhaustive = set(find_pure_nash(inst, grid).equilibria)
    for prof in res.equilibria:
        assert prof in exhaustive



@pytest.mark.parametrize("instance, grid, seed, evaluated, expected", [
    (AuctionInstance((valuation(0, 1.0), valuation(0, 0.5)), 1,
                     "discriminatory", tie_favor_bidder(0)),
     BidGrid(0.25, 1.0), 3, 22,
     [[(0.25,), (0.0,)], [(0.75,), (0.75,)], [(0.25,), (0.25,)]]),
    (AuctionInstance((valuation(0, 0.5, 0.75), valuation(0, 0.75, 1.0),
                      valuation(0, 0.25, 0.75)), 2, "uniform",
                     tie_favor_last()),
     BidGrid(0.25, 1.0, "uniform", no_overbidding=True), 11, 39,
     [[(0.5, 0.0), (0.5, 0.0), (0.25, 0.0)],
      [(0.5, 0.0), (0.5, 0.0), (0.25, 0.25)],
      [(0.5, 0.0), (0.75, 0.0), (0.25, 0.25)]]),
    # under a slot-level rule some paths run out of rounds
    (AuctionInstance((valuation(0, 1.0, 1.75), valuation(0, 0.875, 1.5)), 2,
                     "uniform", tie_explicit([(1, 1), (0, 1), (1, 0)])),
     BidGrid(0.125, 1.0, no_overbidding=True), 7, 2002,
     [[(0.625, 0.25), (0.875, 0.25)]]),
])
def test_dynamics_results_pinned(instance, grid, seed, evaluated, expected):
    # each start draws one strategy index per bidder from the seed
    res = find_pure_nash(instance, grid, mode="best_response_dynamics",
                         seed=seed, starts=6)
    assert res.evaluated == evaluated
    assert [prof.vectors() for prof in res.equilibria] == expected


# -- Bayesian games -----------------------------------------------------------


def test_appendix_c_is_bayes_nash():
    game, strat = appendix_c_bayesian()
    report = is_bayes_nash(game, strat)
    assert report.max_regret <= 1e-12
    assert bayesian_poa(game, strat) == pytest.approx(1.000466, abs=1e-5)


def test_appendix_c_perturbed_has_regret():
    game, strat = appendix_c_bayesian()
    grid = game.grid
    lowered = pure_strategy((
        (StandardBid((grid.value(332),)),),
        (StandardBid((grid.value(334),)), StandardBid((grid.value(333),))),
    ))
    report = is_bayes_nash(game, lowered)
    assert report.max_regret > 1e-4



def test_standard_deviation_breaks_a_uniform_certificate():
    # a scan of the uniform bids alone certified this strategy (regret 0)
    game, strat = standard_deviation_game()
    report = is_bayes_nash(game, strat)
    assert report.max_regret == 0.0625
    worst = max(report.entries, key=lambda e: e.regret)
    assert (worst.bidder, worst.type_index) == (0, 0)
    assert worst.best_bid == StandardBid((0.5, 0.25))
    assert not report.is_equilibrium()


def test_deviation_space_beyond_the_limit_is_refused_unbuilt(monkeypatch):
    def no_space(*args):
        raise AssertionError("a strategy space was built")

    game, strat = standard_deviation_game()
    monkeypatch.setattr(equilibria, "_grid_vectors", no_space)
    # a standard k = 2 grid of tick 1/512 has C(514, 2) = 131,841 bids
    fine = replace(game, grid=BidGrid(1 / 512, 1.0))
    assert equilibria._space_size(fine.grid, 2) == 131841
    with pytest.raises(SearchCapExceeded, match="limit"):
        is_bayes_nash(fine, strat)


def _reference_is_bayes_nash(game, strat):
    """Every opposing scenario and every bid of the game's strategy space
    scored by its own run_auction, in is_bayes_nash's order."""
    std = game.grid.interface == "standard"
    entries = []
    for i in range(game.n):
        others = [j for j in range(game.n) if j != i]
        scenarios = []
        for types in itertools.product(*(range(len(game.types[j]))
                                         for j in others)):
            p_type = 1.0
            for j, t in zip(others, types):
                p_type *= game.priors[j][t]
            if p_type == 0.0:
                continue
            for combo in itertools.product(*(strat.rules[j][t]
                                             for j, t in zip(others, types))):
                p = p_type
                bids = [None] * game.n
                for j, (bid, pb) in zip(others, combo):
                    p *= pb
                    bids[j] = bid
                if p != 0.0:
                    scenarios.append((bids, p))

        def expected(val, own):
            total = 0.0
            for bids, p in scenarios:
                bids = bids[:i] + [own] + bids[i + 1:]
                profile = BidProfile(tuple(
                    b.expand(game.k) if std and isinstance(b, UniformBid)
                    else b for b in bids), game.grid.interface, game.k)
                out = run_auction(profile, game.tie_break, game.pricing)
                total += p * (val.value(out.allocation[i]) - out.payments[i])
            return total

        for t, val in enumerate(game.types[i]):
            cur = 0.0
            for bid, pm in strat.rules[i][t]:
                cur += pm * expected(val, bid)
            best, best_bid = cur, None
            for cand in grid_bids_for(game.grid, game.k, val):
                u = expected(val, cand)
                if u > best:
                    best, best_bid = u, cand
            entries.append(RegretEntry(i, t, cur, best, max(0.0, best - cur),
                                       best_bid))
    return RegretReport(tuple(entries))


def _random_bayes_case(index):
    rng = case_rng(9009, index)
    n, k = rng.randint(1, 3), rng.randint(1, 3)
    interface = rng.choice(("standard", "uniform"))
    grid = BidGrid(0.25, rng.choice((0.5, 1.0)), interface,
                   no_overbidding=rng.random() < 0.5)
    tie = random_tie(rng, n, k)
    types, priors, rules = [], [], []
    for _ in range(n):
        vals = tuple(random_valuation("general", k, 1.0 / k,
                                      seed=rng.randrange(2 ** 31))
                     for _ in range(rng.randint(1, 2)))
        # unequal weights, at times a zero one
        weights = [rng.choice((0.0, 1.0, 2.0, 3.0)) for _ in vals]
        weights[0] += 1.0
        per_type = []
        for val in vals:
            space = grid_bids_for(grid, k, val)
            support = [rng.choice(space) for _ in range(rng.randint(1, 3))]
            mass = [rng.choice((1.0, 2.0, 5.0)) for _ in support]
            per_type.append(tuple((bid, m / sum(mass))
                                  for bid, m in zip(support, mass)))
        types.append(vals)
        priors.append(tuple(w / sum(weights) for w in weights))
        rules.append(tuple(per_type))
    game = BayesianGame(k, tuple(types), tuple(priors), grid, tie,
                        rng.choice(("discriminatory", "uniform")))
    return game, Strategy(tuple(rules))


def test_bayes_nash_matches_auction_oracle():
    kinds = set()
    mixed = 0
    for index in range(200):
        game, strat = _random_bayes_case(index)
        kinds.add((game.tie_break.kind, game.pricing, game.grid.interface,
                   game.grid.no_overbidding))
        # an opponent with two types, one of them mixing unequally
        mixed += any(len(per_type) > 1 and any(
            len({p for _, p in rule}) > 1 for rule in per_type)
            for per_type in strat.rules[1:])
        assert is_bayes_nash(game, strat) == _reference_is_bayes_nash(game,
                                                                      strat)
    # every tie kind under both pricings, both interfaces, no-overbidding
    # on and off
    assert len(kinds) == 4 * 2 * 2 * 2
    assert mixed >= 40


def test_singleton_game_reduces_to_pure_nash():
    for idx in range(25):
        rng = case_rng(7, idx)
        inst = random_instance(rng, "submodular", "uniform", 3, 3, scale=0.5)
        grid = BidGrid(0.125, 1.0, no_overbidding=True)
        prof = grid_snap_profile(random_no_overbidding_profile(inst, rng), grid)
        if not all(check_no_overbidding(inst.valuations[i], prof.bids[i])
                   for i in range(inst.n)):
            continue
        game = singleton_game(inst, grid)
        strat = pure_strategy(tuple((prof.bids[i],) for i in range(inst.n)))
        rep_b = is_bayes_nash(game, strat)
        rep_p = is_pure_nash(prof, inst, grid)
        assert rep_b.max_regret == pytest.approx(rep_p.max_regret, abs=1e-12)


def test_full_information_poa_reduces_to_ratio():
    inst = AuctionInstance((valuation(0, 1.0), valuation(0, 0.5)), 1,
                           "uniform", tie_favor_bidder(1))
    grid = BidGrid(0.25, 1.0)
    game = singleton_game(inst, grid)
    prof = uniform_profile(1, UniformBid(0.5, 1), UniformBid(0.5, 1))
    strat = pure_strategy(((prof.bids[0],), (prof.bids[1],)))
    assert bayesian_poa(game, strat) == pytest.approx(2.0)


def test_bayesian_poa_matches_manual_enumeration():
    grid = BidGrid(0.25, 1.0)
    v_hi, v_lo = valuation(0, 1.0), valuation(0, 0.5)
    game = BayesianGame(1, ((v_hi, v_lo), (v_lo,)), ((0.25, 0.75), (1.0,)),
                        grid, tie_lexicographic(), "discriminatory")
    bid = lambda x: StandardBid((x,))
    strat = Strategy(((((bid(0.5), 0.5), (bid(0.25), 0.5)), ((bid(0.25), 1.0),)),
                      (((bid(0.25), 1.0),),)))
    # manual: bidder 2 always bids 0.25; bidder 1 ties at 0.25 half the time
    # (lexicographic tie goes to bidder 1) and outbids otherwise, so bidder 1
    # always wins: welfare = E[v_1] = 0.25*1 + 0.75*0.5
    e_sw = 0.25 * 1.0 + 0.75 * 0.5
    e_opt = 0.25 * 1.0 + 0.75 * 0.5
    assert bayesian_poa(game, strat) == pytest.approx(e_opt / e_sw)


def test_strategy_validation():
    game, strat = appendix_c_bayesian()
    bad = Strategy(((((StandardBid((0.3335,)), 1.0),),),) + strat.rules[1:])
    with pytest.raises(ValueError):
        bad.validate(game)
    unbalanced = Strategy(((((StandardBid((0.333,)), 0.5),),),) + strat.rules[1:])
    with pytest.raises(ValueError):
        unbalanced.validate(game)


def test_bayesian_game_favoured_bidder_is_one_of_the_bidders():
    game, _ = appendix_c_bayesian()
    assert replace(game, tie_break=tie_favor_bidder(1)).n == 2
    with pytest.raises(ValueError, match="favour"):
        replace(game, tie_break=tie_favor_bidder(2))


@pytest.mark.parametrize("bad", [
    {"tick": "0.25"}, {"tick": True}, {"max_bid": "1"}, {"max_bid": False},
    {"no_overbidding": "false"}, {"no_overbidding": 0}, {"no_overbidding": 1}])
def test_grid_json_reads_numbers_and_a_boolean(bad):
    data = {"tick": 0.25, "max_bid": 1, "no_overbidding": True}
    assert BidGrid.from_json(data) == BidGrid(0.25, 1.0, no_overbidding=True)
    with pytest.raises(ValueError):
        BidGrid.from_json(dict(data, **bad))


def test_is_pure_nash_regret_boundary_is_eq_tol():
    """A regret of exactly EQ_TOL is an equilibrium; one ulp more is not.
    A lone bidder bidding 0 for one unit worth 2 * EQ_TOL has its best
    grid response at one tick, and v - tick is exact (Sterbenz), so the
    regret is exactly v - tick."""
    inst = AuctionInstance((valuation(0, 2 * EQ_TOL),), 1, "discriminatory",
                           tie_lexicographic())
    profile = standard_profile(1, standard_bid(0.0))
    for tick, regret, equilibrium in (
            (EQ_TOL, EQ_TOL, True),
            (math.nextafter(EQ_TOL, 0.0), math.nextafter(EQ_TOL, 1.0), False)):
        report = is_pure_nash(profile, inst, BidGrid(tick, 1.0))
        assert report.max_regret == regret
        assert report.is_equilibrium() is equilibrium


@pytest.mark.parametrize("bad", [1.7, True, "1", None, math.nan])
def test_strategy_json_rejects_non_integral_quantities(bad):
    strat = pure_strategy(((UniformBid(0.25, 1),), (StandardBid((0.5,)),)))
    data = strat.to_json()
    # an integral float is read as the integer
    data[0][0][0][0]["quantity"] = 1.0
    assert Strategy.from_json(data) == strat
    data[0][0][0][0]["quantity"] = bad
    with pytest.raises(ValueError, match="quantity"):
        Strategy.from_json(data)


def test_strategy_validation_rejects_bids_the_game_cannot_hold(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before the strategy was validated")

    for name in ("deviation_outcomes", "allocate", "optimal_allocation"):
        monkeypatch.setattr(equilibria, name, no_scan)
    v = valuation(0, 0.5, 0.75)
    fits = {"standard": StandardBid((0.25, 0.0)), "uniform": UniformBid(0.25, 1)}
    for interface, bid in (("uniform", StandardBid((0.25, 0.0))),
                           ("standard", StandardBid((0.25,))),
                           ("standard", UniformBid(0.25, 3)),
                           ("uniform", UniformBid(0.25, 3))):
        game = BayesianGame(2, ((v,), (v,)), ((1.0,), (1.0,)),
                            BidGrid(0.25, 1.0, interface),
                            tie_lexicographic(), "uniform")
        strat = pure_strategy(((fits[interface],), (bid,)))
        with pytest.raises(ValueError):
            strat.validate(game)
        with pytest.raises(ValueError):
            is_bayes_nash(game, strat)
        with pytest.raises(ValueError):
            bayesian_poa(game, strat)


# -- undominated bidding and the interface conversion -------------------------


def test_undominated_upa():
    v = random_valuation("submodular", 4, 1.0, seed=21)
    m = v.marginals
    assert is_undominated_upa(v, StandardBid(m))
    lowered = StandardBid((m[0] - 0.01,) + m[1:])
    assert not is_undominated_upa(v, lowered)
    above = StandardBid((m[0],) + tuple(min(m[j] + 0.01, m[j - 1])
                                        for j in range(1, 4)))
    assert not is_undominated_upa(v, above)


def test_undominated_needs_submodular():
    jump = Valuation((0.0, 1.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        is_undominated_upa(jump, StandardBid((1.0, 0.0, 0.0)))


def test_theorem4_loser_bids_undominated():
    named = theorem4_instance(8, 1e-6)
    prof = named.profile("equilibrium")
    for i in range(1, named.instance.n):
        bid = prof.bids[i].expand(named.instance.k)
        assert is_undominated_upa(named.instance.valuations[i], bid)


def test_conversion_maps_losers_to_first_marginal():
    rng = case_rng(31, 0)
    inst, prof = lemma1_equilibrium(rng)
    converted = pne_standard_to_uniform(prof, inst)
    out = allocate(prof, inst.tie_break)
    for i in range(inst.n):
        if out.allocation[i] == 0:
            m1 = inst.valuations[i].marginals[0]
            assert converted.bids[i] == UniformBid(m1, 1)
        else:
            x = out.allocation[i]
            assert converted.bids[i].quantity == x
            assert converted.bids[i].price == inst.valuations[i].value(x) / x


def test_conversion_rejects_non_canonical_profiles():
    rng = case_rng(31, 1)
    inst, prof = lemma1_equilibrium(rng)
    vec = list(prof.vector(0))
    vec[0] = vec[0] + 0.05
    broken = prof.replace(0, StandardBid(tuple(vec)))
    with pytest.raises(ValueError):
        pne_standard_to_uniform(broken, inst)


def test_conversion_preserves_outcome_on_constructed_equilibria():
    for idx in range(25):
        rng = case_rng(32, idx)
        inst, prof = lemma1_equilibrium(rng)
        before = run_auction(prof, inst.tie_break, "uniform")
        converted = pne_standard_to_uniform(prof, inst)
        after = run_auction(converted, inst.tie_break, "uniform")
        assert before.allocation == after.allocation
        assert before.uniform_price == after.uniform_price
        assert social_welfare(inst.valuations, before.allocation) == \
            social_welfare(inst.valuations, after.allocation)


def test_canonical_profile_shape():
    rng = case_rng(33, 0)
    inst, prof = lemma1_equilibrium(rng)
    out = allocate(prof, inst.tie_break)
    for i in range(inst.n):
        vec = prof.vector(i)
        m = inst.valuations[i].marginals
        x = out.allocation[i]
        if x:
            assert vec[:x] == m[:x]
            assert all(v == 0.0 for v in vec[x:])
        else:
            assert vec == (m[0],) + (0.0,) * (inst.k - 1)


def test_best_response_to_equalizing_curve():
    # the best reply to the equalizing bid curve matches one of its levels
    # and collects value k/e no matter which level is chosen
    import math
    from poa_lab.instances import theorem6_da_instance

    k = 50
    named = theorem6_da_instance(k, 1.0)
    prof = named.profile("lower-bound-witness")
    br = best_response(named.instance, prof, 0, BidGrid(1e-6, 1.0))
    assert br.utility == pytest.approx(k / math.e, abs=1e-9)
    curve_levels = {v for v in prof.vector(1) if v > 0}
    assert any(abs(br.bid.price - level) <= 1.1e-6 for level in curve_levels)
    assert br.utility == pytest.approx(
        named.instance.valuations[0].value(br.bid.quantity)
        - br.bid.quantity * br.bid.price, abs=1e-9)


def test_no_continuum_equilibrium_instance_on_grid():
    # first-price with ties against the high bidder has no equilibrium in
    # the continuum; on a grid one appears at tick granularity
    inst = AuctionInstance((valuation(0, 1.0), valuation(0, 0.5)), 1,
                           "discriminatory", tie_favor_bidder(1))
    grid = BidGrid(0.25, 1.0)
    tied = standard_profile(1, standard_bid(0.5), standard_bid(0.5))
    assert is_pure_nash(tied, inst, grid).max_regret > 0.1 + EQ_TOL
    res = find_pure_nash(inst, grid)
    assert res.equilibria
    for prof in res.equilibria:
        assert allocate(prof, inst.tie_break).allocation == (1, 0)


def test_theorem4_conversion_is_fixed_point():
    # every bidder wins one unit bidding his first marginal: the canonical
    # uniform image is the profile itself
    named = theorem4_instance(6, 1e-6)
    inst = named.instance
    std = standard_profile(
        inst.k, *(named.profile("equilibrium").bids[i].expand(inst.k)
                  for i in range(inst.n)))
    converted = pne_standard_to_uniform(std, inst)
    assert converted.bids == named.profile("equilibrium").bids


def test_appendix_c_expected_utilities():
    game, strat = appendix_c_bayesian(alpha=0.0014, tick=1e-3)
    report = is_bayes_nash(game, strat)
    by_type = {(e.bidder, e.type_index): e for e in report.entries}
    lo = game.grid.value(333)
    hi = game.grid.value(334)
    alpha = game.priors[1][0]
    assert by_type[(0, 0)].current_utility == pytest.approx(
        (1 - alpha) * (1 - lo), abs=1e-12)
    assert by_type[(1, 0)].current_utility == pytest.approx(0.667 - hi,
                                                            abs=1e-12)
    assert by_type[(1, 1)].current_utility == 0.0


def test_uniform_interface_exhaustive_search():
    # one unit under uniform pricing is a second-price auction: the
    # truthful no-overbidding profile is an equilibrium on the grid
    inst = AuctionInstance((valuation(0, 1.0), valuation(0, 0.5)), 1,
                           "uniform", tie_favor_bidder(0))
    grid = BidGrid(0.25, 1.0, "uniform", no_overbidding=True)
    res = find_pure_nash(inst, grid)
    assert res.exhaustive
    truthful = uniform_profile(1, UniformBid(1.0, 1), UniformBid(0.5, 1))
    assert truthful in res.equilibria
    out = run_auction(truthful, inst.tie_break, "uniform")
    assert out.allocation == (1, 0) and out.payments == (0.5, 0.0)
